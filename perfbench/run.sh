#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ycsb-b-hot --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and a traced run's span and counter files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C "$(dirname "$0")" build -trimpath -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out/trace" "$@"
