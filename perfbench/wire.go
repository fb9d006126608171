package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pop"
	"pop/internal/server"
)

// wire runs internal/server in process on loopback with its defaults
// (EpochPOP, 8 skiplist shards, get coalescing) and drives it from one
// generator goroutine over two connections, with the ycsb-b-hot keys,
// values and 95/5 get/set mix.
//
// The end-to-end metrics come from a closed loop: the generator sends
// the next request as soon as the last reply is in. An open loop at a
// fixed wireRate follows, timing every request from the moment it was
// due. On a small virtual machine whose vCPUs stall for milliseconds
// several times a second, every stall holds up every request due
// during it, so the open loop's tail measures the host more than the
// server and is far too noisy to gate on; it is printed, not put in
// the result line.
const (
	wireKeys   = 1 << 16
	wireConns  = 2
	wireRate   = 4000
	wireGetPct = 95
	// wireLateMax is the generator lateness p99 above which the open
	// loop measured the generator instead of the server: a quarter of
	// the 1 ms a wire get should stay within.
	wireLateMax = 250 * time.Microsecond
	// The warm-up and the closed loop send a fixed number of requests,
	// wireClosedRate per second of their nominal length, not run for a
	// fixed time. The server does not reclaim while it serves, so its
	// garbage grows with every set: over a fixed time a faster server
	// would report more garbage. wireClosedRate is about the closed
	// loop's rate on the reference machine.
	wireClosedRate = 14000
	// wireClosedShare is the closed loop's nominal share of --seconds;
	// the open loop runs for the rest.
	wireClosedShare = 0.75
	// wireMaxInFlight bounds the requests one connection may have
	// outstanding: the sender blocks beyond it, which the lateness and
	// the latency from due time both record.
	wireMaxInFlight = 1 << 14
	// wireDrainWait is how long the generator waits for a reply, or for
	// room to send, before it gives the server up.
	wireDrainWait = 5 * time.Second
)

// Phases index the receivers' per-phase statistics.
const (
	phWarm = iota
	phClosed
	phOpen
	wirePhases
)

// inflight is one sent request awaiting its reply, in send order.
type inflight struct {
	req, key                uint64
	put                     bool
	closed                  bool // closed loop: hand the connection back once answered
	traced                  bool // record spans for this request
	phase                   int
	at                      int64 // window position: due time (open loop) or request index (closed loop)
	due, sendStart, sendEnd int64
}

// wireStats is what one receiver measured in one phase.
type wireStats struct {
	get, put series
	failed   uint64
}

// wconn is one client connection: the generator writes requests, a
// receiver goroutine reads the replies in order and times them.
type wconn struct {
	idx   int
	nc    net.Conn
	sent  chan inflight
	done  atomic.Uint64 // replies received
	stats [wirePhases]wireStats
	rec   *recorder
	exit  chan struct{}
}

type wireRig struct {
	srv   *server.Server // nil when the rig talks to another server
	conns []*wconn
	keys  []string
	// ready carries the closed loop's turn: the index of the
	// connection whose reply just came in.
	ready chan int
	// wait is how long the generator waits on the server.
	wait time.Duration
	// dead closes, with err set, when a receiver stops on a reply it
	// cannot parse or a connection that fails; stop closes when the rig
	// is shut down.
	dead, stop chan struct{}
	once       sync.Once
	err        error
}

// buildWire is the timed set-up: start a server, prefill its store,
// connect the clients.
func buildWire(keys []string, seed uint64) (*wireRig, error) {
	// Policy is set explicitly: the zero Config's Policy is NR, not
	// the documented EpochPOP default.
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Policy: pop.EpochPOP})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	if err := prefill(srv.Store(), keys, seed, hotSize); err != nil {
		srv.Close()
		return nil, err
	}
	w, err := dialWire(srv.Addr().String(), keys)
	if err != nil {
		srv.Close()
		return nil, err
	}
	w.srv = srv
	return w, nil
}

// dialWire connects the clients to the server at addr and starts their
// receivers.
func dialWire(addr string, keys []string) (*wireRig, error) {
	w := &wireRig{keys: keys, ready: make(chan int, 1), wait: wireDrainWait, dead: make(chan struct{}), stop: make(chan struct{})}
	for i := 0; i < wireConns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		// The channel holds exactly the requests the connection may
		// have outstanding.
		c := &wconn{idx: i, nc: nc, sent: make(chan inflight, wireMaxInFlight), exit: make(chan struct{})}
		w.conns = append(w.conns, c)
		go c.receive(w)
	}
	return w, nil
}

// close disconnects the clients, waits for their receivers, and stops
// the server.
func (w *wireRig) close() error {
	close(w.stop)
	for _, c := range w.conns {
		c.nc.Close()
		<-c.exit
	}
	if w.srv == nil {
		return nil
	}
	return w.srv.Close()
}

// die stops the run with err; the first error wins.
func (w *wireRig) die(err error) {
	w.once.Do(func() {
		w.err = err
		close(w.dead)
	})
}

func (w *wireRig) replies() uint64 {
	var n uint64
	for _, c := range w.conns {
		n += c.done.Load()
	}
	return n
}

var errMalformed = errors.New("malformed reply")

// maxReplyValue is far above any value the benchmark writes.
const maxReplyValue = 1 << 20

// readReply reads one reply. For a get hit it leaves the key in key
// and the value, with its trailing CRLF, in data, and returns no line.
// Otherwise line is the reply line, valid until the next read, for the
// caller to check. A VALUE reply it cannot parse leaves the stream out
// of step and is an error.
func readReply(r *bufio.Reader, data, key *[]byte) (line []byte, hit bool, err error) {
	line, err = r.ReadSlice('\n')
	if err != nil || !bytes.HasPrefix(line, []byte("VALUE ")) {
		return line, false, err
	}
	// VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n
	f := bytes.Fields(line)
	if len(f) != 4 {
		return nil, false, fmt.Errorf("%w: %q", errMalformed, line)
	}
	n, err := strconv.Atoi(string(f[3]))
	if err != nil || n < 0 || n > maxReplyValue {
		return nil, false, fmt.Errorf("%w: %q", errMalformed, line)
	}
	*key = append((*key)[:0], f[1]...)
	if cap(*data) < n+2 {
		*data = make([]byte, n+2)
	}
	*data = (*data)[:n+2]
	if _, err := io.ReadFull(r, *data); err != nil {
		return nil, false, err
	}
	end, err := r.ReadSlice('\n')
	if err != nil {
		return nil, false, err
	}
	if string(end) != "END\r\n" {
		return nil, false, fmt.Errorf("%w: value not followed by END: %q", errMalformed, end)
	}
	// line is no longer valid after the reads above.
	return nil, true, nil
}

// receive reads replies in order until the rig closes. A reply it
// cannot parse, or a read that fails, stops the run.
func (c *wconn) receive(w *wireRig) {
	defer close(c.exit)
	r := bufio.NewReaderSize(c.nc, 64<<10)
	var data, check, keyLine []byte
	for {
		line, hit, err := readReply(r, &data, &keyLine)
		if err != nil {
			w.die(fmt.Errorf("connection %d: %w", c.idx, err))
			return
		}
		end := now()
		var f inflight
		select {
		case f = <-c.sent:
		case <-w.stop:
			return
		}
		st := &c.stats[f.phase]
		var ok bool
		if f.put {
			st.put.record(f.at, end-f.due)
			ok = string(line) == "STORED\r\n"
		} else {
			st.get.record(f.at, end-f.due)
			ok = hit && string(keyLine) == w.keys[f.key] && checkValue(f.key, data[:len(data)-2], &check)
		}
		if !ok {
			st.failed++
		}
		if f.traced {
			id := wireRequestID(f.req)
			c.rec.add(span{Name: uint8(spWireRecv), Start: f.sendEnd, End: end, Req: f.req, Parent: id})
			c.rec.add(span{ID: id, Name: uint8(spWireRequest), Start: f.due, End: end, Req: f.req})
		}
		c.done.Add(1)
		if f.closed {
			w.ready <- c.idx
		}
	}
}

// generator is the single load generator.
type generator struct {
	w     *wireRig
	r     *rng
	ks    *keySampler
	req   uint64
	sent  []uint64 // per connection
	buf   []byte
	val   []byte
	timer *time.Timer // bounds every wait on the server
	// traced marks requests whose spans are recorded; rec and the
	// connections' recorders exist only in traced runs.
	traced bool
	rec    *recorder
}

func newGenerator(w *wireRig, seed uint64) *generator {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &generator{w: w, r: newRNG(seed, 0), ks: newZipf(wireKeys, 0.99, seed), sent: make([]uint64, wireConns), timer: t}
}

// phaseResult is what one phase measured.
type phaseResult struct {
	late    hist // open loop: how late the generator released requests
	elapsed time.Duration
	get     series
	put     series
	failed  uint64
	sampled
}

// startPhase gives every receiver fresh statistics for phase, in nw
// windows that split span from start. Receivers touch them only for
// requests sent after this, through the connection's channel.
func (g *generator) startPhase(phase int, start int64, span time.Duration, nw int) {
	for _, c := range g.w.conns {
		c.stats[phase] = wireStats{get: newSeries(start, span, nw), put: newSeries(start, span, nw)}
	}
}

// turn waits for the closed loop's next turn and returns the connection
// whose reply just came in.
func (g *generator) turn() (int, error) {
	g.timer.Reset(g.w.wait)
	select {
	case ci := <-g.w.ready:
		return ci, nil
	case <-g.w.dead:
		return 0, g.w.err
	case <-g.timer.C:
		return 0, fmt.Errorf("no reply within %v", g.w.wait)
	}
}

// closedLoop sends n requests with one in flight, alternating the
// connections: the next request goes out as soon as the last reply is
// in. Latencies are windowed, and throughput measured, over nw windows
// of n/nw requests each. Client and server share one P meanwhile,
// since one request in flight leaves nothing to run in parallel.
//
// Both choices keep the tail a measure of the serving path rather than
// of the host. With two requests in flight both vCPUs of a two-vCPU VM
// stayed busy, and get p99 moved between 0.27 and 0.53 ms with the
// host's load. With one request over two Ps, every request still crossed
// CPUs several times (server read, executor, client read). Ten runs
// then gave get p99 from 120 to 370 µs, with the other metrics steady.
func (g *generator) closedLoop(n uint64, phase, nw int) (*phaseResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	per := max(n/uint64(nw), 1)
	// The windows split request indices, not time.
	g.startPhase(phase, 0, time.Duration(per*uint64(nw)), nw)
	start := time.Now()
	mark, allocMark := start, allocBytes()
	var rates, allocs []float64
	g.w.ready <- 0
	for i := uint64(0); i <= n; i++ {
		ci, err := g.turn()
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		if i > 0 && i%per == 0 && len(rates) < nw {
			t, alloc := time.Now(), allocBytes()
			rates = append(rates, float64(per)/t.Sub(mark).Seconds())
			allocs = append(allocs, float64(alloc-allocMark)/float64(per))
			mark, allocMark = t, alloc
		}
		if i == n {
			break
		}
		if err := g.send((ci+1)%wireConns, now(), int64(i), phase, true); err != nil {
			return nil, err
		}
	}
	res := g.collect(phase, start)
	res.rates, res.allocs = rates, allocs
	return res, nil
}

// openLoop sends at a fixed rate for dur, whatever the replies do,
// then waits for every reply.
func (g *generator) openLoop(rate float64, dur time.Duration, phase int) (*phaseResult, error) {
	start := time.Now()
	g.startPhase(phase, int64(start.Sub(clockBase)), dur, 1)
	p := newPacer(start, rate)
	for i := int64(rate * dur.Seconds()); i > 0; i-- {
		due := int64(p.wait().Sub(clockBase))
		if err := g.send(int(g.req%wireConns), due, due, phase, false); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}
	var sent uint64
	for _, n := range g.sent {
		sent += n
	}
	deadline := time.Now().Add(g.w.wait)
	for g.w.replies() < sent {
		select {
		case <-g.w.dead:
			return nil, fmt.Errorf("open loop: %w", g.w.err)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("open loop: %d replies missing %v after the last request", sent-g.w.replies(), g.w.wait)
		}
		time.Sleep(100 * time.Microsecond)
	}
	res := g.collect(phase, start)
	res.late = p.late
	return res, nil
}

func (g *generator) collect(phase int, start time.Time) *phaseResult {
	res := &phaseResult{elapsed: time.Since(start)}
	for _, c := range g.w.conns {
		st := &c.stats[phase]
		res.get.merge(&st.get)
		res.put.merge(&st.put)
		res.failed += st.failed
	}
	return res
}

// send writes one request, due at the given span-clock time, and hands
// it to the connection's receiver.
func (g *generator) send(ci int, due, at int64, phase int, closed bool) error {
	c := g.w.conns[ci]
	g.req++
	k, get, size := drawOp(g.r, g.ks, wireGetPct, hotSize)
	key := g.w.keys[k]
	f := inflight{req: g.req, key: k, due: due, at: at, phase: phase, closed: closed, traced: g.traced}
	if get {
		g.buf = append(append(append(g.buf[:0], "get "...), key...), "\r\n"...)
	} else {
		f.put = true
		g.val = encodeValue(g.val, k, g.req<<2|3, size)
		g.buf = append(append(append(g.buf[:0], "set "...), key...), " 0 0 "...)
		g.buf = strconv.AppendInt(g.buf, int64(len(g.val)), 10)
		g.buf = append(append(append(g.buf, "\r\n"...), g.val...), "\r\n"...)
	}
	f.sendStart = now()
	if _, err := c.nc.Write(g.buf); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	f.sendEnd = now()
	if f.traced {
		g.rec.add(span{Name: uint8(spWireSend), Start: f.sendStart, End: f.sendEnd, Req: f.req, Parent: wireRequestID(f.req)})
	}
	g.sent[ci]++
	select {
	case c.sent <- f:
		return nil
	default:
	}
	g.timer.Reset(g.w.wait)
	select {
	case c.sent <- f:
		return nil
	case <-g.w.dead:
		return g.w.err
	case <-g.timer.C:
		return fmt.Errorf("connection %d: %d requests unanswered for %v", ci, wireMaxInFlight, g.w.wait)
	}
}

// sampledPhase runs fn on its own goroutine while this one samples the
// garbage peak.
func sampledPhase(p probe, fn func() (*phaseResult, error)) (*phaseResult, error) {
	type ret struct {
		r   *phaseResult
		err error
	}
	done := make(chan ret, 1)
	stop := make(chan struct{})
	go func() {
		r, err := fn()
		close(stop)
		done <- ret{r, err}
	}()
	s := sample(p, 0, nil, stop)
	r := <-done
	if r.err != nil {
		return nil, r.err
	}
	r.r.peak = s.peak
	return r.r, nil
}

func runWire(e *env) (*outcome, error) {
	o := newOutcome(e)
	keys := keyStrings(wireKeys)
	var w *wireRig
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = buildWire(keys, e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.values["setup_s"] = median(setups)

	g := newGenerator(w, e.seed)
	if e.trace {
		g.rec = newRecorder(1)
		o.recs = append(o.recs, g.rec)
		for i, c := range w.conns {
			c.rec = newRecorder(2 + i)
			o.recs = append(o.recs, c.rec)
		}
	}
	err := runWirePhases(e, o, g)
	if cerr := w.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// After Close the drain adopts whatever the connections and
	// executors donated.
	if err := verifyStore(o, w.srv.Store(), w.srv.Group(), keys); err != nil {
		return nil, err
	}
	o.values["mem_bytes_per_key"] = float64(heapLiveBytes()) / float64(len(keys))
	runtime.KeepAlive(w)
	return o, nil
}

// runWirePhases runs warm-up, then the closed loop and the fixed-rate
// open loop; a traced run interleaves untraced and traced closed-loop
// segments instead.
func runWirePhases(e *env, o *outcome, g *generator) error {
	p := probe{core: g.w.srv.Group(), store: g.w.srv.Store(), srv: g.w.srv}
	if _, err := g.closedLoop(uint64(warmup.Seconds()*wireClosedRate), phWarm, 1); err != nil {
		return err
	}
	n := uint64(wireClosedShare * e.seconds.Seconds() * wireClosedRate)
	openDur := time.Duration((1 - wireClosedShare) * float64(e.seconds))
	if e.trace {
		return tracedWire(o, g, p, n, openDur)
	}
	res, err := sampledPhase(p, func() (*phaseResult, error) { return g.closedLoop(n, phClosed, windows) })
	if err != nil {
		return err
	}
	ops := res.get.total().n + res.put.total().n
	o.attempted += ops
	o.failN(res.failed, "%d wire replies failing their check", res.failed)
	o.values["throughput_ops_s"] = median(res.rates)
	o.percentiles("get", &res.get)
	o.percentiles("put", &res.put)
	o.values["garbage_peak_nodes"] = float64(res.peak)
	o.values["alloc_bytes_per_op"] = median(res.allocs)
	_, err = g.fixedRate(o, openDur)
	return err
}

// fixedRate runs the open loop at wireRate and prints what it saw.
func (g *generator) fixedRate(o *outcome, dur time.Duration) (*phaseResult, error) {
	open, err := g.openLoop(wireRate, dur, phOpen)
	if err != nil {
		return nil, err
	}
	o.attempted += open.get.total().n + open.put.total().n
	o.failN(open.failed, "%d wire replies failing their check", open.failed)
	late := open.late.quantile(0.99)
	fmt.Printf("open loop %d ops/s: get p50 %.1f us p99 %.1f us (n=%d), generator late p50 %.1f us p99 %.1f us, valid=%v\n",
		wireRate, open.get.quantile(0.5)/1e3, open.get.quantile(0.99)/1e3, open.get.total().n,
		open.late.quantile(0.5)/1e3, late/1e3, late <= float64(wireLateMax))
	return open, nil
}

// tracedWire is the traced run: the closed loop's n requests are split
// into interleaved untraced and traced segments of equal size, then
// the open loop measures the generator's lateness and the server's
// admission and coalescing, which need more than one request in flight.
func tracedWire(o *outcome, g *generator, p probe, n uint64, openDur time.Duration) error {
	seg := n / (2 * traceSegments)
	var ops [2]uint64
	var took [2]time.Duration
	a := p.snap()
	for i := 0; i < 2*traceSegments; i++ {
		g.traced = tracedSegment(i)
		r, err := g.closedLoop(seg, phClosed, 1)
		if err != nil {
			return err
		}
		done := r.get.total().n + r.put.total().n
		o.attempted += done
		o.failN(r.failed, "%d wire replies failing their check", r.failed)
		k := 0
		if g.traced {
			k = 1
		}
		ops[k] += done
		took[k] += r.elapsed
	}
	b := p.snap()
	g.traced = false
	open, err := g.fixedRate(o, openDur)
	if err != nil {
		return err
	}
	c := p.snap()
	plain, traced := float64(ops[0])/took[0].Seconds(), float64(ops[1])/took[1].Seconds()
	o.layer = &counters{Ops: ops[0] + ops[1], LateP50: open.late.quantile(0.5), LateP99: open.late.quantile(0.99),
		Overhead: plain/traced - 1}
	delta(o.layer, a, b)
	var srv counters
	delta(&srv, b, c)
	o.layer.ExecutorGets, o.layer.ExecutorBatches, o.layer.AdmissionP99 = srv.ExecutorGets, srv.ExecutorBatches, srv.AdmissionP99
	return nil
}
