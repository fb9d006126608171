//go:build race

package main

// raceEnabled is set when the race detector is built in; it slows the
// workloads about tenfold.
const raceEnabled = true
