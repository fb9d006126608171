package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opKind indexes a worker's latency histograms.
type opKind int

const (
	opGet opKind = iota
	opPut
	opDelete
	opScan
	numOps
)

// tally is one worker's measurements over one phase. The worker
// publishes ops to live every few operations so the sampler can window
// the throughput while the phase runs.
type tally struct {
	lat    [numOps]series
	ops    uint64
	failed uint64
	live   atomic.Uint64
}

// done counts one finished operation and reports whether the phase is
// over; end is the operation's end on the span clock.
func (t *tally) done(end, deadline int64) bool {
	t.ops++
	if t.ops&15 == 0 {
		t.live.Store(t.ops)
	}
	return end >= deadline
}

// worker is the body of one closed-loop goroutine. It is created on
// that goroutine (handles are goroutine-affine), runs operations
// until each phase's deadline, and finishes — flushes and releases —
// once every worker has stopped.
type worker interface {
	run(deadline int64, t *tally, rec *recorder)
	finish()
}

const (
	// warmup runs before anything is measured. Right after prefill the
	// store runs faster than it will later: with a 0.5 s warm-up the
	// first second of ycsb-b-hot ran about 25% above the rest of the run.
	warmup = 2 * time.Second
	// traceSegments is how many untraced and traced segments a traced
	// run interleaves, in the order untraced, traced, traced, untraced
	// and so on, so that a drift in throughput over the run does not
	// read as tracing cost.
	traceSegments = 4
	// sampleEvery is the garbage sampling interval.
	sampleEvery = 2 * time.Millisecond
	// windows splits the measured phase; throughput is the median of
	// the per-window rates, which a single stall cannot drag.
	windows = 20
)

// loopResult is what a closed-loop run measured.
type loopResult struct {
	main     tally   // merged over workers and the phases after warm-up
	overhead float64 // traced runs: cost per op traced over untraced, minus 1
	sampled
	a, b *snapshot // counter snapshots around the measured phase
	recs []*recorder
}

// closedLoop runs n workers through warm-up and the measured phase,
// sampling garbage and throughput windows meanwhile. A traced run
// splits the measured phase into interleaved untraced and traced
// segments of equal length.
func closedLoop(e *env, p probe, n int, newWorker func(i int) worker) *loopResult {
	type phase struct {
		dur    time.Duration
		traced bool
	}
	phases := []phase{{warmup, false}, {e.seconds, false}}
	if e.trace {
		phases = phases[:1]
		seg := e.seconds / (2 * traceSegments)
		for i := 0; i < 2*traceSegments; i++ {
			phases = append(phases, phase{seg, tracedSegment(i)})
		}
	}
	res := &loopResult{}
	if e.trace {
		for i := 0; i < n; i++ {
			res.recs = append(res.recs, newRecorder(i+1))
		}
	}
	tallies := make([][]tally, n)
	start := now()
	deadlines := make([]int64, len(phases))
	at := start
	for i, ph := range phases {
		at += int64(ph.dur)
		deadlines[i] = at
	}

	var loops, finished sync.WaitGroup
	finishGo := make(chan struct{})
	for i := 0; i < n; i++ {
		tallies[i] = make([]tally, len(phases))
		for ph := range phases {
			nw := 1
			if ph > 0 && !e.trace {
				nw = windows
			}
			for op := range tallies[i][ph].lat {
				tallies[i][ph].lat[op] = newSeries(deadlines[ph]-int64(phases[ph].dur), phases[ph].dur, nw)
			}
		}
		loops.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			w := newWorker(i)
			for ph := range phases {
				var rec *recorder
				if phases[ph].traced {
					rec = res.recs[i]
				}
				w.run(deadlines[ph], &tallies[i][ph], rec)
			}
			loops.Done()
			<-finishGo
			w.finish()
		}(i)
	}

	// Everything after warm-up is measured.
	last := len(phases) - 1
	sleepUntil(deadlines[0])
	progSum := func() uint64 {
		var s uint64
		for i := range tallies {
			for ph := 1; ph <= last; ph++ {
				s += tallies[i][ph].live.Load()
			}
		}
		return s
	}
	res.a = p.snap()
	stop := make(chan struct{})
	time.AfterFunc(time.Duration(deadlines[last]-now()), func() { close(stop) })
	res.sampled = sample(p, e.seconds, progSum, stop)
	res.b = p.snap()
	loops.Wait()
	var plain, traced uint64
	for i := 0; i < n; i++ {
		for ph := 1; ph <= last; ph++ {
			res.main.merge(&tallies[i][ph])
			if phases[ph].traced {
				traced += tallies[i][ph].ops
			} else {
				plain += tallies[i][ph].ops
			}
		}
	}
	if e.trace {
		// Segments are of equal length, so ops per segment compare.
		res.overhead = float64(plain)/float64(max(traced, 1)) - 1
	}
	close(finishGo)
	finished.Wait()
	return res
}

// sampled is what the sampler saw during a measured phase.
type sampled struct {
	peak  int64     // largest garbage (unreclaimed nodes) sampled
	rates []float64 // completed ops/s per window
	// allocs is the Go heap bytes allocated per completed op, per
	// window. Its median leaves out the few windows in which a pool or
	// slab grows to a new high-water mark: how many of those land in a
	// run varied the whole-run figure by a third between seeds.
	allocs []float64
}

// sample watches a running phase of length dur until done closes:
// garbage every sampleEvery, and progress() per window of dur/windows
// unless progress is nil.
func sample(p probe, dur time.Duration, progress func() uint64, done <-chan struct{}) sampled {
	var s sampled
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	window := dur / windows
	winStart, mark, allocMark := time.Now(), uint64(0), allocBytes()
	if progress != nil {
		mark = progress()
	}
	for {
		select {
		case <-done:
			return s
		case <-tick.C:
		}
		if g := p.core.Unreclaimed(); g > s.peak {
			s.peak = g
		}
		if progress == nil {
			continue
		}
		if t := time.Now(); t.Sub(winStart) >= window && len(s.rates) < windows {
			cur, alloc := progress(), allocBytes()
			s.rates = append(s.rates, float64(cur-mark)/t.Sub(winStart).Seconds())
			if cur > mark {
				s.allocs = append(s.allocs, float64(alloc-allocMark)/float64(cur-mark))
			}
			winStart, mark, allocMark = t, cur, alloc
		}
	}
}

func (t *tally) merge(o *tally) {
	for i := range t.lat {
		t.lat[i].merge(&o.lat[i])
	}
	t.ops += o.ops
	t.failed += o.failed
}

// tracedSegment reports whether segment i of a traced run is traced.
func tracedSegment(i int) bool { return i%4 == 1 || i%4 == 2 }

func sleepUntil(deadline int64) {
	if d := time.Duration(deadline - now()); d > 0 {
		time.Sleep(d)
	}
}
