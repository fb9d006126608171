package main

import "time"

// spinWithin is how close to a due time the pacer stops sleeping and
// starts spinning. time.Sleep of a few hundred microseconds overshoots
// by up to a millisecond on a small, busy box, so a sleep is only ever
// asked for the part of a gap beyond this margin.
//
// The spin does not call runtime.Gosched: a goroutine that keeps
// yielding sits on the global run queue, which the scheduler checks
// before it polls the network, so a yield-spin starves every socket
// read in the process until sysmon's 10 ms poll. A plain spin holds
// one P and leaves the others to run and poll as usual; asynchronous
// preemption still takes it off the CPU for GC and fairness.
const spinWithin = 1500 * time.Microsecond

// pacer releases a fixed-rate open-loop schedule: request i is due at
// start + i*gap whether or not earlier requests have been answered.
// It records how late it released each request, which is the
// generator's own error and must stay well below the latency limit
// for the run's timings to describe the system.
type pacer struct {
	start time.Time
	gap   time.Duration
	i     int64
	late  hist
}

func newPacer(start time.Time, rate float64) *pacer {
	return &pacer{start: start, gap: time.Duration(float64(time.Second) / rate)}
}

// wait blocks until the next request is due and returns its due time.
func (p *pacer) wait() time.Time {
	due := p.start.Add(time.Duration(p.i) * p.gap)
	p.i++
	for {
		d := time.Until(due)
		if d <= 0 {
			p.late.record(int64(-d))
			return due
		}
		if d > spinWithin {
			time.Sleep(d - spinWithin)
		}
	}
}
