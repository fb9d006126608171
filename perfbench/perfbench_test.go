package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestOpStreamIsSeeded(t *testing.T) {
	stream := func(seed uint64) []string {
		r, ks := newRNG(seed, 0), newZipf(1<<16, 0.99, seed)
		var out []string
		for i := 0; i < 10000; i++ {
			k, get, n := drawOp(r, ks, 95, hotSize)
			out = append(out, strconv.FormatUint(k, 10)+strconv.FormatBool(get)+strconv.Itoa(n))
		}
		return out
	}
	a, b := stream(7), stream(7)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different op streams")
	}
	if slices.Equal(a, stream(8)) {
		t.Fatal("seeds 7 and 8 gave the same op stream")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	const n, draws = 1 << 16, 200000
	r, ks := newRNG(1, 0), newZipf(n, 0.99, 1)
	counts := make(map[uint64]int)
	for i := 0; i < draws; i++ {
		k := ks.next(r)
		if k >= n {
			t.Fatalf("key %d outside [0, %d)", k, n)
		}
		counts[k]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Rank 1 of zipf(0.99) over 64K keys draws about 1/zeta ≈ 8.5%.
	if share := float64(top) / draws; share < 0.06 || share > 0.11 {
		t.Fatalf("hottest key drew %.3f of the draws, want about 0.085", share)
	}
}

func TestValueCodecCatchesDamage(t *testing.T) {
	var scratch []byte
	for _, n := range []int{6, 64, 100, 120} {
		v := encodeValue(nil, 42, 0x1234567, n)
		if !checkValue(42, v, &scratch) {
			t.Fatalf("%d-byte value fails its own check", n)
		}
		if checkValue(43, v, &scratch) {
			t.Fatalf("%d-byte value of key 42 passes as key 43", n)
		}
		for i := range v {
			bad := slices.Clone(v)
			bad[i] ^= 0x40
			if checkValue(42, bad, &scratch) {
				t.Fatalf("%d-byte value with byte %d flipped passes", n, i)
			}
		}
		if checkValue(42, v[:n-1], &scratch) {
			t.Fatalf("truncated %d-byte value passes", n)
		}
	}
	w := encodeWord(9, 77)
	if !checkWord(9, w) || checkWord(10, w) || checkWord(9, w^1) {
		t.Fatal("map word check does not tie the value to its key")
	}
}

func TestHistQuantileMatchesSort(t *testing.T) {
	r := newRNG(3, 0)
	var h hist
	var vals []float64
	for i := 0; i < 100000; i++ {
		v := int64(math.Exp(r.float() * 20)) // 1 ns .. 0.5 s, log-uniform
		h.record(v)
		vals = append(vals, float64(v))
	}
	slices.Sort(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.quantile(q)
		if math.Abs(got-want) > want/64+1 {
			t.Errorf("q%.3f = %.1f, sorted reference %.1f", q, got, want)
		}
	}
}

func TestSeriesTakesMedianOverWindows(t *testing.T) {
	s := newSeries(0, 10*time.Second, 10)
	for w := 0; w < 10; w++ {
		v := int64(1000)
		if w == 3 {
			v = 1e9 // one bad window
		}
		for i := 0; i < 2000; i++ {
			s.record(int64(w)*int64(time.Second)+int64(i), v+int64(i%100))
		}
	}
	if p99 := s.quantile(0.99); p99 > 2000 {
		t.Fatalf("windowed p99 = %.0f: one bad window set it", p99)
	}
	// Too few samples for more than one group: a plain quantile.
	thin := newSeries(0, time.Second, 10)
	for i := 0; i < 500; i++ {
		thin.record(int64(i)*int64(time.Millisecond), int64(i))
	}
	if got, want := thin.quantile(0.5), thin.total().quantile(0.5); got != want {
		t.Fatalf("thin series median %.1f, want the whole-run %.1f", got, want)
	}
}

func TestLayerReportFromFiles(t *testing.T) {
	rec := newRecorder(1)
	id := wireRequestID(5)
	rec.add(span{Name: uint8(spWireSend), Start: 100, End: 110, Req: 5, Parent: id})
	rec.add(span{Name: uint8(spWireRecv), Start: 110, End: 400, Req: 5, Parent: id})
	rec.add(span{ID: id, Name: uint8(spWireRequest), Start: 0, End: 400, Req: 5})
	rec.add(span{Name: uint8(spMapScan), Start: 0, End: 1000, Arg: 500})
	dir := t.TempDir()
	sp, cp := filepath.Join(dir, "x.spans"), filepath.Join(dir, "x.counters.json")
	if err := writeSpans(sp, []*recorder{rec}); err != nil {
		t.Fatal(err)
	}
	c := &counters{Ops: 1000, Passes: 10, POPPasses: 4, Retires: 50, Frees: 25}
	if err := writeCounters(cp, c); err != nil {
		t.Fatal(err)
	}
	m, err := reportFiles(sp, cp)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"self.wire.request_p50_us": 0.1, // due at 0, sent at 100 ns
		"wire.rtt_p50_us":          0.3,
		"ds.scan_ns_per_key":       2,
		"core.pop_pass_share":      0.4,
		"core.free_ratio":          0.5,
		"core.passes_per_kop":      10,
	} {
		if math.Abs(m[name]-want) > want/50 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			t.Errorf("per-layer metric %s missing from the report", d.name)
		}
	}
}

// The benchmark reaches the system only through its public entry
// points, so rewrites of the repository's own harnesses are measured
// by it rather than changing it.
func TestImportBoundary(t *testing.T) {
	forbidden := []string{"pop/internal/harness", "pop/internal/figures", "pop/internal/workload", "pop/cmd/popbench"}
	files, _ := filepath.Glob("*.go")
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range af.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); slices.Contains(forbidden, p) {
				t.Errorf("%s imports %s", f, p)
			}
		}
	}
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if slices.Contains(forbidden, dep) {
			t.Errorf("the benchmark depends on %s", dep)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, the benchmark prints %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}

// The traced run must show publish-on-ping at work where a reader is
// delayed, and not where none is.
func TestTracedPOPShare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	if raceEnabled {
		// The writer then retires too slowly to reach the escalation
		// threshold within one 200 ms hold.
		t.Skip("publish-on-ping needs the writer at full speed")
	}
	share := func(workload string) float64 {
		e := &env{workload: workload, seed: 1, seconds: time.Second, trace: true, out: t.TempDir()}
		o, err := workloads[workload](e)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("%s: %d checks failed", workload, o.failed)
		}
		m, err := writeAndReport(e, o)
		if err != nil {
			t.Fatal(err)
		}
		return m["core.pop_pass_share"]
	}
	if s := share("delayed-reader"); s <= 0 {
		t.Errorf("delayed-reader core.pop_pass_share = %g, want > 0", s)
	}
	if s := share("ycsb-b-hot"); s > 0.01 {
		t.Errorf("ycsb-b-hot core.pop_pass_share = %g, want about 0", s)
	}
}
