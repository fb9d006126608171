package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"pop"
	"pop/internal/report"
	"pop/internal/server"
)

// coreSource is what both a *pop.Domain and a *pop.DomainGroup expose
// about reclamation: race-safe counters, the reclamation-pass and
// ping-ack histograms, and the current garbage.
type coreSource interface {
	StatsSampled() pop.Stats
	PassDurHist() report.Histogram
	PingAckHist() report.Histogram
	Unreclaimed() int64
}

// probe reads every layer's public counters; store and srv are nil for
// workloads that do not run those layers.
type probe struct {
	core  coreSource
	store *pop.Store
	srv   *server.Server
}

// snapshot is one reading of all counters, taken at a phase boundary.
type snapshot struct {
	at      time.Time
	core    pop.Stats
	pass    report.Histogram
	pingAck report.Histogram
	store   pop.StoreStats
	srv     server.Stats
	adm     report.Histogram
	rt      goSnap
}

func (p probe) snap() *snapshot {
	s := &snapshot{
		at:      time.Now(),
		core:    p.core.StatsSampled(),
		pass:    p.core.PassDurHist(),
		pingAck: p.core.PingAckHist(),
		rt:      readGo(),
	}
	if p.store != nil {
		s.store = p.store.Stats()
	}
	if p.srv != nil {
		s.srv = p.srv.Stats()
		s.adm = *p.srv.AdmissionWait()
	}
	return s
}

// delta fills the counter deltas between two snapshots into c.
func delta(c *counters, a, b *snapshot) {
	c.Seconds = b.at.Sub(a.at).Seconds()
	c.Retires = b.core.Retires - a.core.Retires
	c.Frees = b.core.Frees - a.core.Frees
	c.Passes = b.core.Reclaims - a.core.Reclaims
	c.POPPasses = b.core.POPReclaims - a.core.POPReclaims
	c.Pings = b.core.PingsSent - a.core.PingsSent
	c.Scanned = b.core.ThreadsScanned - a.core.ThreadsScanned
	c.Publishes = b.core.Publishes - a.core.Publishes
	pass := b.pass.Sub(&a.pass)
	c.PassP50, c.PassP99 = pass.Quantile(0.5), pass.Quantile(0.99)
	ack := b.pingAck.Sub(&a.pingAck)
	c.PingAckP50, c.PingAckP99 = ack.Quantile(0.5), ack.Quantile(0.99)
	c.StoreGets = b.store.Gets - a.store.Gets
	c.StoreStale = b.store.StaleReads - a.store.StaleReads
	c.StorePuts = b.store.Puts - a.store.Puts
	c.ArenaAllocs = b.store.Values.Allocs - a.store.Values.Allocs
	c.ArenaFrees = b.store.Values.Frees - a.store.Values.Frees
	c.ExecutorGets = b.srv.ExecutorGets - a.srv.ExecutorGets
	c.ExecutorBatches = b.srv.CoalescedBatches - a.srv.CoalescedBatches
	adm := b.adm.Sub(&a.adm)
	c.AdmissionP99 = adm.Quantile(0.99)
	c.GCCycles = b.rt.gcCycles - a.rt.gcCycles
	c.GCPauseP99 = 1e9 * histDeltaQuantile(a.rt.pauses, b.rt.pauses, 0.99)
	c.SchedLatP99 = 1e9 * histDeltaQuantile(a.rt.sched, b.rt.sched, 0.99)
}

// The Go runtime layer, read through runtime/metrics.
const (
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

type goSnap struct {
	gcCycles      uint64
	pauses, sched *metrics.Float64Histogram
}

func readGo() goSnap {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCPauses}, {Name: mSchedLat}}
	metrics.Read(s)
	return goSnap{
		gcCycles: s[0].Value.Uint64(),
		pauses:   s[1].Value.Float64Histogram(),
		sched:    s[2].Value.Float64Histogram(),
	}
}

// allocBytes is the Go heap bytes allocated so far.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLiveBytes forces a collection and returns the heap bytes still
// in use: the memory the program keeps, not what it churned through.
func heapLiveBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// histDeltaQuantile is the q-quantile of the observations b has beyond
// a (same bucket layout), interpolated inside the bucket. 0 when the
// window saw none.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range b.Counts {
		c := float64(b.Counts[i] - a.Counts[i])
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, hi := b.Buckets[i], b.Buckets[i+1]
		if math.IsInf(lo, -1) {
			return hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (rank-cum)/c*(hi-lo)
	}
	return 0
}
