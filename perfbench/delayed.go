package main

import (
	"fmt"
	"runtime"
	"time"

	"pop"
)

// delayed-reader drives pop.NewSkipListMap directly with the paper's
// long-running-reads setting (§5.0.1: reclaim threshold 2048). One
// goroutine churns the odd keys; the other scans 1024-key windows and,
// on a fixed schedule, holds an operation open for 200 ms while
// answering pings (the delayed thread of §5.1.2). EpochPOP cannot
// advance the epoch past the held operation, so its garbage grows
// until it escalates to publish-on-ping: this is the workload where
// pings, publishes and the garbage bound do the work.
const (
	drKeys       = 1 << 16
	drScanSpan   = 1024
	drThreshold  = 2048
	drHoldEvery  = time.Second
	drHold       = 200 * time.Millisecond
	drInsertPct  = 45
	drDeletePct  = 45 // the rest are reads of permanent (even) keys
	drMaxThreads = 4  // writer, reader, prefill/checker
)

func runDelayedReader(e *env) (*outcome, error) {
	o := newOutcome(e)
	var d *pop.Domain
	var m pop.OrderedMap
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		d, m = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, m, err = buildMap(e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.values["setup_s"] = median(setups)

	// The first hold falls half a period into the measured phase, so
	// even a one-second run measures a whole one.
	firstHold := now() + int64(warmup+drHoldEvery/2)
	lr := closedLoop(e, probe{core: d}, 2, func(i int) worker {
		t, err := d.TryRegisterThread()
		if err != nil {
			panic(err) // the domain has a slot per worker
		}
		return &mapWorker{m: m, t: t, r: newRNG(e.seed, uint64(i)), id: uint64(i) + 1,
			reader: i == 1, nextHold: firstHold}
	})
	o.attempted += lr.main.ops
	o.failN(lr.main.failed, "%d reads, deletes or scans broke their checks", lr.main.failed)
	o.values["throughput_ops_s"] = median(lr.rates)
	o.percentiles("get", &lr.main.lat[opGet])
	o.percentiles("put", &lr.main.lat[opPut])
	scans := &lr.main.lat[opScan]
	o.values["scan_p50_us"] = scans.quantile(0.5) / 1e3
	o.samples["scan_p50_us"] = scans.total().n
	o.values["garbage_peak_nodes"] = float64(lr.peak)
	o.values["alloc_bytes_per_op"] = median(lr.allocs)

	t, err := d.TryRegisterThread()
	if err != nil {
		return nil, fmt.Errorf("checker lease: %w", err)
	}
	for i := 0; i < 3 && d.Unreclaimed() != 0; i++ {
		t.Flush()
	}
	if u := d.Unreclaimed(); u != 0 {
		o.fail("%d nodes unreclaimed after the final flush", u)
	}
	for k := int64(0); k < drKeys; k++ {
		v, ok := m.Get(t, k)
		o.attempted++
		if (k%2 == 0 && !ok) || (ok && !checkWord(uint64(k), v)) {
			o.fail("final read of key %d: present=%v, value %#x fails its check", k, ok, v)
		}
	}
	live := m.Size(t)
	if n := m.Outstanding(); n != int64(live) {
		o.fail("node pools hold %d nodes after the final flush, want the %d live keys", n, live)
	}
	if e.trace {
		o.layer, o.recs = &counters{Ops: lr.main.ops, Overhead: lr.overhead}, lr.recs
		delta(o.layer, lr.a, lr.b)
		o.layer.LiveKeys = int64(live)
		o.layer.Nodes = m.Outstanding()
	}
	t.Release()
	o.values["mem_bytes_per_key"] = float64(heapLiveBytes()) / float64(live)
	runtime.KeepAlive(m)
	return o, nil
}

// buildMap is the timed set-up: a fresh domain and skiplist holding
// every even (permanent) key and a seeded half of the odd keys.
func buildMap(seed uint64) (*pop.Domain, pop.OrderedMap, error) {
	d := pop.NewDomain(pop.EpochPOP, drMaxThreads, &pop.Options{ReclaimThreshold: drThreshold})
	m := pop.NewSkipListMap(d)
	t, err := d.TryRegisterThread()
	if err != nil {
		return nil, nil, fmt.Errorf("prefill lease: %w", err)
	}
	defer t.Release()
	r := newRNG(seed, 1<<20)
	for k := int64(0); k < drKeys; k++ {
		if k%2 == 0 || r.intn(2) == 0 {
			m.Put(t, k, encodeWord(uint64(k), 0))
		}
	}
	return d, m, nil
}

// mapWorker is the writer (odd-key churn plus reads of even keys) or
// the reader (scans plus the scheduled hold).
type mapWorker struct {
	m        pop.OrderedMap
	t        *pop.Thread
	r        *rng
	id       uint64
	ver      uint64
	req      uint64
	reader   bool
	nextHold int64 // span clock
}

func (w *mapWorker) run(deadline int64, t *tally, rec *recorder) {
	for {
		w.req++
		var end int64
		if w.reader {
			end = w.scanOrHold(t, rec)
		} else {
			end = w.write(t, rec)
		}
		if t.done(end, deadline) {
			return
		}
	}
}

func (w *mapWorker) write(t *tally, rec *recorder) int64 {
	x := w.r.intn(100)
	req := w.id<<48 | w.req
	if x >= drInsertPct+drDeletePct {
		k := int64(2 * w.r.intn(drKeys/2))
		st := now()
		v, ok := w.m.Get(w.t, k)
		end := now()
		t.lat[opGet].record(end, end-st)
		rec.add(span{Name: uint8(spMapGet), Start: st, End: end, Req: req})
		if !ok || !checkWord(uint64(k), v) {
			t.failed++
		}
		return end
	}
	k := int64(2*w.r.intn(drKeys/2) + 1)
	if x < drInsertPct {
		w.ver++
		val := encodeWord(uint64(k), w.ver<<2|w.id)
		st := now()
		w.m.PutIfAbsent(w.t, k, val)
		end := now()
		t.lat[opPut].record(end, end-st)
		rec.add(span{Name: uint8(spMapInsert), Start: st, End: end, Req: req})
		return end
	}
	st := now()
	v, ok := w.m.Delete(w.t, k)
	end := now()
	t.lat[opDelete].record(end, end-st)
	rec.add(span{Name: uint8(spMapDelete), Start: st, End: end, Req: req})
	if ok && !checkWord(uint64(k), v) {
		t.failed++
	}
	return end
}

func (w *mapWorker) scanOrHold(t *tally, rec *recorder) int64 {
	req := w.id<<48 | w.req
	if st := now(); st >= w.nextHold {
		// The delayed thread: inside an operation, busy elsewhere, but
		// still answering pings the way a signal handler would.
		w.t.StartOp()
		for now() < st+int64(drHold) {
			w.t.Poll()
			runtime.Gosched()
		}
		w.t.EndOp()
		end := now()
		rec.add(span{Name: uint8(spHold), Start: st, End: end, Req: req})
		w.nextHold += int64(drHoldEvery)
		return end
	}
	lo := int64(w.r.intn(drKeys - drScanSpan + 1))
	hi := lo + drScanSpan - 1
	st := now()
	n := w.m.RangeCount(w.t, lo, hi)
	end := now()
	t.lat[opScan].record(end, end-st)
	rec.add(span{Name: uint8(spMapScan), Start: st, End: end, Req: req, Arg: int64(n)})
	// Every even key is permanent, so a scan sees at least those and
	// at most the whole window.
	if n < drScanSpan/2 || n > drScanSpan {
		t.failed++
	}
	return end
}

func (w *mapWorker) finish() {
	w.t.Flush()
	w.t.Release()
}
