// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the public entry points of the system
// (pop maps, pop.Store, the memcached-text server), checks every
// result it gets back, and prints every end-to-end metric by name with
// its unit. With -trace 1 it instead records a span around every call
// into a layer, writes the spans and the layers' counter deltas under
// -out, and prints the per-layer metrics derived from those files.
//
//	perfbench --workload ycsb-b-hot --seed 1 --seconds 10 --trace 0
//	perfbench report -spans F -counters F
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero when any check failed or the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports from its untraced
// run; the names match BENCHMARK.json's end_to_end list. Each is
// nonzero on every workload.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"put_p50_us", "us"},
	{"put_p99_us", "us"},
	{"garbage_peak_nodes", "nodes"},
	{"mem_bytes_per_key", "B"},
	{"alloc_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// workloadOnly lists the end-to-end metrics that exist on some
// workloads only (scans) or are zero on a correct run. They are
// printed, not put in the result line, whose failure count is in
// "failed".
var workloadOnly = []metricDef{
	{"scan_p50_us", "us"},
	{"failed_op_ratio", "ratio"},
}

// env is one invocation's settings.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // directory traced runs write spans and counters to
}

// outcome is what a workload run hands back.
type outcome struct {
	traced            bool
	attempted, failed uint64
	reported          int                // failure messages printed
	values            map[string]float64 // end-to-end metrics by name
	samples           map[string]uint64  // sample count behind each percentile
	layer             *counters          // traced runs only
	recs              []*recorder        // traced runs only
}

func newOutcome(e *env) *outcome {
	return &outcome{traced: e.trace, values: map[string]float64{}, samples: map[string]uint64{}}
}

// fail counts one violated check and says which.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n violations of one check; it says which unless n is 0.
func (o *outcome) failN(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	o.failed += n
	if o.reported++; o.reported <= 20 {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// percentiles stores the median and p99 of s under prefix, in µs.
func (o *outcome) percentiles(prefix string, s *series) {
	n := s.total().n
	o.values[prefix+"_p50_us"] = s.quantile(0.5) / 1e3
	o.values[prefix+"_p99_us"] = s.quantile(0.99) / 1e3
	o.samples[prefix+"_p50_us"] = n
	o.samples[prefix+"_p99_us"] = n
	if !o.traced && n < minGroup {
		o.fail("%s_p99_us rests on %d samples, fewer than 10 beyond the percentile", prefix, n)
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"ycsb-b-hot":     runYCSBBHot,
	"ycsb-a-large":   runYCSBALarge,
	"delayed-reader": runDelayedReader,
	"wire":           runWire,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(reportMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: ycsb-b-hot, ycsb-a-large, delayed-reader or wire")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for a traced run's span and counter files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload ycsb-b-hot|ycsb-a-large|delayed-reader|wire, -seconds >= 1, -trace 0|1")
		return 2
	}
	e := &env{workload: *name, seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, out: *out}
	o, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	o.values["failed_op_ratio"] = float64(o.failed) / float64(max(o.attempted, 1))
	metrics := map[string]any{}
	if e.trace {
		vals, err := writeAndReport(e, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced report: %v\n", *name, err)
			return 1
		}
		printLayer(vals, metrics)
	} else {
		for _, m := range append(slices.Clone(endToEnd), workloadOnly...) {
			if v, ok := o.values[m.name]; ok {
				fmt.Printf("%-20s %14.4f %s", m.name, v, m.unit)
				if n, ok := o.samples[m.name]; ok {
					fmt.Printf("  (n=%d)", n)
				}
				fmt.Println()
			}
		}
		for _, m := range endToEnd {
			v, ok := o.values[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", *name, m.name)
				return 1
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	res, err := json.Marshal(map[string]any{
		"correct": o.failed == 0, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	})
	if err != nil { // a metric came out NaN or infinite
		fmt.Fprintf(os.Stderr, "perfbench: %s: result: %v\n", *name, err)
		return 1
	}
	fmt.Println(string(res))
	if o.failed != 0 {
		return 1
	}
	return 0
}

// writeAndReport writes the traced run's spans and counters, then
// derives the per-layer metrics by reading those files back, exactly
// as the report subcommand does.
func writeAndReport(e *env, o *outcome) (map[string]float64, error) {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(e.out, e.workload)
	o.layer.Workload = e.workload
	if err := writeSpans(base+".spans", o.recs); err != nil {
		return nil, err
	}
	if err := writeCounters(base+".counters.json", o.layer); err != nil {
		return nil, err
	}
	return reportFiles(base+".spans", base+".counters.json")
}

func reportFiles(spansPath, countersPath string) (map[string]float64, error) {
	spans, err := readSpans(spansPath)
	if err != nil {
		return nil, err
	}
	c, err := readCounters(countersPath)
	if err != nil {
		return nil, err
	}
	return layerReport(spans, c), nil
}

// printLayer prints every per-layer metric by name and fills the
// result line's metrics.
func printLayer(vals map[string]float64, metrics map[string]any) {
	for _, m := range perLayer {
		fmt.Printf("%-36s %14.4f %s\n", m.name, vals[m.name], m.unit)
		metrics[m.name] = map[string]any{"value": vals[m.name], "unit": m.unit}
	}
}

// reportMain is the report step on its own: it reads a traced run's
// files and prints the per-layer metrics.
func reportMain(args []string) int {
	fs := flag.NewFlagSet("perfbench report", flag.ContinueOnError)
	spans := fs.String("spans", "", "span file a traced run wrote")
	ctrs := fs.String("counters", "", "counter file a traced run wrote")
	if err := fs.Parse(args); err != nil || *spans == "" || *ctrs == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench report -spans F -counters F")
		return 2
	}
	vals, err := reportFiles(*spans, *ctrs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench report: %v\n", err)
		return 1
	}
	printLayer(vals, map[string]any{})
	return 0
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
