package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// The traced run records one span around every call the benchmark
// makes into a layer. Spans live in per-goroutine rings in memory and
// are written out once the run ends; the report step reads them back
// with the counter deltas and derives the per-layer metrics.

type spanName uint8

const (
	spStoreGet spanName = iota
	spStorePut
	spMapInsert
	spMapDelete
	spMapGet
	spMapScan
	spHold
	spWireRequest
	spWireSend
	spWireRecv
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"store.get", "store.put",
	"ds.insert", "ds.delete", "ds.get", "ds.scan",
	"core.hold",
	"wire.request", "wire.send", "wire.recv",
}

// span is one timed call. Times are nanoseconds since process start.
// Children name their parent's ID; spans of one request share Req.
type span struct {
	ID, Parent, Req uint64
	Start, End      int64
	Arg             int64 // ds.scan: keys the scan returned
	Name            uint8
	_               [7]byte
}

var clockBase = time.Now()

// now is the span clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// ringSpans is each recorder's capacity. A ring keeps the cost of
// tracing the same for every call of a long run (every call is
// recorded) while bounding memory; the report reads the most recent
// ringSpans spans of each recorder.
const ringSpans = 1 << 16

// recorder is one goroutine's span ring. A nil recorder records
// nothing, so untraced runs pay one nil check per call.
type recorder struct {
	id    uint64
	seq   uint64
	n     uint64
	spans []span
}

func newRecorder(id int) *recorder {
	return &recorder{id: uint64(id), spans: make([]span, ringSpans)}
}

// add records s, assigning an ID unless s carries one, and returns it.
func (r *recorder) add(s span) uint64 {
	if r == nil {
		return 0
	}
	if s.ID == 0 {
		r.seq++
		s.ID = r.id<<48 | r.seq
	}
	r.spans[r.n%ringSpans] = s
	r.n++
	return s.ID
}

// kept returns the spans still in the ring, oldest first.
func (r *recorder) kept() []span {
	if r.n <= ringSpans {
		return r.spans[:r.n]
	}
	i := r.n % ringSpans
	return append(slices.Clone(r.spans[i:]), r.spans[:i]...)
}

// wireRequestID is the span ID of wire request req, fixed in advance
// so the sender's child spans can name a parent the receiver records.
func wireRequestID(req uint64) uint64 { return 1<<63 | req }

const spanMagic = "PBSPANS1"

func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(spanMagic)
	for _, r := range recs {
		if err := binary.Write(w, binary.LittleEndian, r.kept()); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	size := binary.Size(span{})
	if len(b) < len(spanMagic) || string(b[:len(spanMagic)]) != spanMagic || (len(b)-len(spanMagic))%size != 0 {
		return nil, fmt.Errorf("%s: not a span file", path)
	}
	out := make([]span, (len(b)-len(spanMagic))/size)
	if err := binary.Read(bytes.NewReader(b[len(spanMagic):]), binary.LittleEndian, out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// counters are the per-layer counter deltas over a traced phase, as
// the report step reads them. Times are nanoseconds.
type counters struct {
	Workload string  `json:"workload"`
	Seconds  float64 `json:"seconds"`
	Ops      uint64  `json:"ops"`

	// core, from Stats / PingAckHist / PassDurHist
	Retires    uint64  `json:"retires"`
	Frees      uint64  `json:"frees"`
	Passes     uint64  `json:"passes"`
	POPPasses  uint64  `json:"pop_passes"`
	Pings      uint64  `json:"pings"`
	Scanned    uint64  `json:"scanned"`
	Publishes  uint64  `json:"publishes"`
	PassP50    float64 `json:"pass_p50_ns"`
	PassP99    float64 `json:"pass_p99_ns"`
	PingAckP50 float64 `json:"ping_ack_p50_ns"`
	PingAckP99 float64 `json:"ping_ack_p99_ns"`

	// store and arena, from Store.Stats; end-of-run sizes after drain
	StoreGets   uint64 `json:"store_gets"`
	StoreStale  uint64 `json:"store_stale_reads"`
	StorePuts   uint64 `json:"store_puts"`
	ArenaAllocs uint64 `json:"arena_allocs"`
	ArenaFrees  uint64 `json:"arena_frees"`
	ArenaSlots  int64  `json:"arena_slots"`
	LiveKeys    int64  `json:"live_keys"`
	Nodes       int64  `json:"nodes"`

	// server, from Server.Stats and AdmissionWait
	ExecutorGets    uint64  `json:"executor_gets"`
	ExecutorBatches uint64  `json:"executor_batches"`
	AdmissionP99    float64 `json:"admission_wait_p99_ns"`

	// go runtime, from runtime/metrics
	GCCycles    uint64  `json:"gc_cycles"`
	GCPauseP99  float64 `json:"gc_pause_p99_ns"`
	SchedLatP99 float64 `json:"sched_latency_p99_ns"`

	// load generator and tracing cost
	LateP50  float64 `json:"late_p50_ns"`
	LateP99  float64 `json:"late_p99_ns"`
	Overhead float64 `json:"trace_overhead_ratio"`
}

func writeCounters(path string, c *counters) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readCounters(path string) (*counters, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c counters
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// perLayer lists the per-layer metrics in report order; the names
// match BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"core.retires_per_op", "count"},
	{"core.free_ratio", "ratio"},
	{"core.passes_per_kop", "count"},
	{"core.pass_p50_us", "us"},
	{"core.pass_p99_us", "us"},
	{"core.pop_pass_share", "ratio"},
	{"core.pings_per_pass", "count"},
	{"core.scanned_per_pass", "count"},
	{"core.publishes_per_kop", "count"},
	{"core.ping_ack_p50_us", "us"},
	{"core.ping_ack_p99_us", "us"},
	{"ds.insert_p50_us", "us"},
	{"ds.delete_p50_us", "us"},
	{"ds.delete_p99_us", "us"},
	{"ds.scan_ns_per_key", "ns"},
	{"ds.nodes_per_key", "count"},
	{"store.stale_reads_per_kget", "count"},
	{"arena.allocs_per_put", "count"},
	{"arena.frees_per_alloc", "ratio"},
	{"arena.slots_per_key", "count"},
	{"server.admission_wait_p99_us", "us"},
	{"server.keys_per_coalesced_batch", "count"},
	{"wire.rtt_p50_us", "us"},
	{"wire.rtt_p99_us", "us"},
	{"go.gc_cycles_per_kop", "count"},
	{"go.gc_pause_p99_us", "us"},
	{"go.sched_latency_p99_us", "us"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

func init() {
	for _, n := range spanNames {
		perLayer = append(perLayer, metricDef{"self." + n + "_p50_us", "us"})
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerReport derives every per-layer metric from a traced run's spans
// and counter deltas.
func layerReport(spans []span, c *counters) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	ops := float64(c.Ops)
	m["core.retires_per_op"] = ratio(float64(c.Retires), ops)
	m["core.free_ratio"] = ratio(float64(c.Frees), float64(c.Retires))
	m["core.passes_per_kop"] = 1000 * ratio(float64(c.Passes), ops)
	m["core.pass_p50_us"] = c.PassP50 / 1e3
	m["core.pass_p99_us"] = c.PassP99 / 1e3
	m["core.pop_pass_share"] = ratio(float64(c.POPPasses), float64(c.Passes))
	m["core.pings_per_pass"] = ratio(float64(c.Pings), float64(c.Passes))
	m["core.scanned_per_pass"] = ratio(float64(c.Scanned), float64(c.Passes))
	m["core.publishes_per_kop"] = 1000 * ratio(float64(c.Publishes), ops)
	m["core.ping_ack_p50_us"] = c.PingAckP50 / 1e3
	m["core.ping_ack_p99_us"] = c.PingAckP99 / 1e3
	m["ds.nodes_per_key"] = ratio(float64(c.Nodes), float64(c.LiveKeys))
	m["store.stale_reads_per_kget"] = 1000 * ratio(float64(c.StoreStale), float64(c.StoreGets))
	m["arena.allocs_per_put"] = ratio(float64(c.ArenaAllocs), float64(c.StorePuts))
	m["arena.frees_per_alloc"] = ratio(float64(c.ArenaFrees), float64(c.ArenaAllocs))
	m["arena.slots_per_key"] = ratio(float64(c.ArenaSlots), float64(c.LiveKeys))
	m["server.admission_wait_p99_us"] = c.AdmissionP99 / 1e3
	m["server.keys_per_coalesced_batch"] = ratio(float64(c.ExecutorGets), float64(c.ExecutorBatches))
	m["go.gc_cycles_per_kop"] = 1000 * ratio(float64(c.GCCycles), ops)
	m["go.gc_pause_p99_us"] = c.GCPauseP99 / 1e3
	m["go.sched_latency_p99_us"] = c.SchedLatP99 / 1e3
	m["loadgen.late_p50_us"] = c.LateP50 / 1e3
	m["loadgen.late_p99_us"] = c.LateP99 / 1e3
	m["trace.overhead_ratio"] = c.Overhead

	// Self time: a span's duration minus its children's.
	childTime := make(map[uint64]int64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			childTime[p] += spans[i].End - spans[i].Start
		}
	}
	var dur, self [numSpanNames]hist
	var scanNs, scanKeys float64
	var rtt hist
	for i := range spans {
		s := &spans[i]
		if int(s.Name) >= int(numSpanNames) {
			continue
		}
		d := s.End - s.Start
		ct := childTime[s.ID]
		dur[s.Name].record(d)
		self[s.Name].record(d - ct)
		switch spanName(s.Name) {
		case spMapScan:
			scanNs += float64(d)
			scanKeys += float64(s.Arg)
		case spWireRequest:
			rtt.record(ct) // send + receive: actual send to full reply
		}
	}
	m["ds.insert_p50_us"] = dur[spMapInsert].quantile(0.5) / 1e3
	m["ds.delete_p50_us"] = dur[spMapDelete].quantile(0.5) / 1e3
	m["ds.delete_p99_us"] = dur[spMapDelete].quantile(0.99) / 1e3
	m["ds.scan_ns_per_key"] = ratio(scanNs, scanKeys)
	m["wire.rtt_p50_us"] = rtt.quantile(0.5) / 1e3
	m["wire.rtt_p99_us"] = rtt.quantile(0.99) / 1e3
	for i, n := range spanNames {
		m["self."+n+"_p50_us"] = self[i].quantile(0.5) / 1e3
	}
	return m
}
