package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pop"
)

// storeSpec is one YCSB-style workload over pop.Store: 8 skiplist
// shards in one EpochPOP domain, every key prefilled, 2 workers.
type storeSpec struct {
	keys   int
	zipf   bool // zipf 0.99 over keys; uniform otherwise
	getPct uint64
	size   func(r *rng) int // value size of one write
}

const (
	storeShards  = 8
	storeWorkers = 2
	// setupReps is how many times a run builds and prefills the system;
	// setup_s is their median, and the last build is the one measured.
	setupReps = 5
)

// ycsb-b-hot: reads dominate and hit a small hot set; 80% of values
// are short enough to live inline in the map word.
func runYCSBBHot(e *env) (*outcome, error) {
	return runStore(e, storeSpec{keys: 1 << 16, zipf: true, getPct: 95, size: hotSize})
}

func hotSize(r *rng) int {
	if r.intn(100) < 80 {
		return 6
	}
	return 100
}

// ycsb-a-large: half the operations overwrite, every value goes to
// the arena, and the working set dwarfs the CPU caches.
func runYCSBALarge(e *env) (*outcome, error) {
	return runStore(e, storeSpec{keys: 1 << 19, getPct: 50, size: func(r *rng) int { return 64 + int(r.intn(57)) }})
}

func runStore(e *env, sp storeSpec) (*outcome, error) {
	o := newOutcome(e)
	keys := keyStrings(sp.keys)
	var s *pop.Store
	var g *pop.DomainGroup
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		s, g = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		g, s, err = buildStore(keys, e.seed, sp.size)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.values["setup_s"] = median(setups)

	var ks *keySampler
	if sp.zipf {
		ks = newZipf(sp.keys, 0.99, e.seed)
	} else {
		ks = newUniform(sp.keys)
	}
	lr := closedLoop(e, probe{core: g, store: s}, storeWorkers, func(i int) worker {
		h, err := s.Acquire()
		if err != nil {
			panic(err) // the group has a slot per worker
		}
		return &storeWorker{s: s, h: h, keys: keys, ks: ks, r: newRNG(e.seed, uint64(i)),
			getPct: sp.getPct, size: sp.size, id: uint64(i) + 1}
	})
	o.attempted += lr.main.ops
	o.failN(lr.main.failed, "%d reads missed or returned a value failing its checksum", lr.main.failed)
	o.values["throughput_ops_s"] = median(lr.rates)
	o.percentiles("get", &lr.main.lat[opGet])
	o.percentiles("put", &lr.main.lat[opPut])
	o.values["garbage_peak_nodes"] = float64(lr.peak)
	o.values["alloc_bytes_per_op"] = median(lr.allocs)

	if e.trace {
		o.layer, o.recs = &counters{Ops: lr.main.ops, Overhead: lr.overhead}, lr.recs
		delta(o.layer, lr.a, lr.b)
	}
	if err := verifyStore(o, s, g, keys); err != nil {
		return nil, err
	}
	o.values["mem_bytes_per_key"] = float64(heapLiveBytes()) / float64(len(keys))
	runtime.KeepAlive(s)
	return o, nil
}

// verifyStore is the end-of-run check of a store whose users have all
// stopped: after a drain nothing may stay unreclaimed, every key must
// read back a valid value, the value arena must hold exactly the values
// too long to live inline, and the node pools one node per key. A
// traced run's counters get the store's sizes.
func verifyStore(o *outcome, s *pop.Store, g *pop.DomainGroup, keys []string) error {
	h, err := s.Acquire()
	if err != nil {
		return fmt.Errorf("checker lease: %w", err)
	}
	defer s.Release(h)
	for i := 0; i < 3 && g.Unreclaimed() != 0; i++ {
		h.Drain()
	}
	if u := g.Unreclaimed(); u != 0 {
		o.fail("%d nodes unreclaimed after the final drain", u)
	}
	var buf, scratch []byte
	var arenaLive int64
	for k, key := range keys {
		v, ok := s.Get(h, key, buf)
		o.attempted++
		if !ok || !checkValue(uint64(k), v, &scratch) {
			o.fail("final read of %s: present=%v, value fails its checksum", key, ok)
		}
		if len(v) > pop.StoreInlineMaxLen {
			arenaLive++
		}
		buf = v
	}
	arena := s.Stats().Values.Outstanding
	if arena != arenaLive {
		o.fail("value arena holds %d slots, want the %d live long values", arena, arenaLive)
	}
	nodes := s.Outstanding() - arena
	if nodes != int64(len(keys)) {
		o.fail("node and ticket pools hold %d after the final drain, want the %d live keys", nodes, len(keys))
	}
	if o.layer != nil {
		o.layer.LiveKeys, o.layer.ArenaSlots, o.layer.Nodes = int64(len(keys)), arena, nodes
	}
	return nil
}

// buildStore is the timed set-up: a fresh domain group and store,
// prefilled with one value per key.
func buildStore(keys []string, seed uint64, size func(*rng) int) (*pop.DomainGroup, *pop.Store, error) {
	g := pop.NewDomainGroup(pop.EpochPOP, 1, storeWorkers+1, nil)
	s, err := pop.NewStore(g, &pop.StoreOptions{Shards: storeShards})
	if err != nil {
		return nil, nil, err
	}
	return g, s, prefill(s, keys, seed, size)
}

// prefill writes one value per key from storeWorkers goroutines.
func prefill(s *pop.Store, keys []string, seed uint64, size func(*rng) int) error {
	var wg sync.WaitGroup
	errs := make(chan error, storeWorkers)
	for w := 0; w < storeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := s.Acquire()
			if err != nil {
				errs <- fmt.Errorf("prefill lease: %w", err)
				return
			}
			defer s.Release(h)
			r := newRNG(seed, 1<<20+uint64(w))
			var val []byte
			for k := w; k < len(keys); k += storeWorkers {
				val = encodeValue(val, uint64(k), 0, size(r))
				s.Put(h, keys[k], val)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

type storeWorker struct {
	s      *pop.Store
	h      *pop.GroupHandle
	keys   []string
	ks     *keySampler
	r      *rng
	getPct uint64
	size   func(*rng) int
	id     uint64 // version low bits: 0 is the prefill
	ver    uint64
	req    uint64
	buf    []byte
	val    []byte
	check  []byte
}

func (w *storeWorker) run(deadline int64, t *tally, rec *recorder) {
	for {
		k, get, size := drawOp(w.r, w.ks, w.getPct, w.size)
		w.req++
		req := w.id<<48 | w.req
		var st, end int64
		if get {
			st = now()
			v, ok := w.s.Get(w.h, w.keys[k], w.buf)
			end = now()
			t.lat[opGet].record(end, end-st)
			rec.add(span{Name: uint8(spStoreGet), Start: st, End: end, Req: req})
			if !ok || !checkValue(k, v, &w.check) {
				t.failed++
			}
			w.buf = v
		} else {
			w.ver++
			w.val = encodeValue(w.val, k, w.ver<<2|w.id, size)
			st = now()
			w.s.Put(w.h, w.keys[k], w.val)
			end = now()
			t.lat[opPut].record(end, end-st)
			rec.add(span{Name: uint8(spStorePut), Start: st, End: end, Req: req})
		}
		if t.done(end, deadline) {
			return
		}
	}
}

func (w *storeWorker) finish() {
	w.h.Drain()
	w.s.Release(w.h)
}
