package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeServer accepts connections on loopback and answers every get and
// set with reply, or never answers when reply is empty.
func fakeServer(t *testing.T, reply string) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					// set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
					if f := strings.Fields(line); len(f) == 5 && f[0] == "set" {
						n, _ := strconv.Atoi(f[4])
						if _, err := io.ReadFull(r, make([]byte, n+2)); err != nil {
							return
						}
					}
					if reply != "" {
						c.Write([]byte(reply))
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// runAgainst runs a short closed loop against a fake server and
// returns its error, failing the test if the loop or the shutdown
// hangs.
func runAgainst(t *testing.T, reply string, wait time.Duration) error {
	w, err := dialWire(fakeServer(t, reply), keyStrings(wireKeys))
	if err != nil {
		t.Fatal(err)
	}
	w.wait = wait
	done := make(chan error, 1)
	go func() {
		_, err := newGenerator(w, 1).closedLoop(1000, phWarm, 1)
		w.close()
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(wait + 5*time.Second):
		t.Fatal("the closed loop hung")
		return nil
	}
}

// A reply that cannot be parsed ends the run with an error instead of
// leaving the closed loop waiting for a turn that never comes.
func TestWireMalformedReplyFails(t *testing.T) {
	for _, reply := range []string{"VALUE user0000001 0 x\r\n", "VALUE user0000001 0\r\n", "VALUE user0000001 0 3\r\nabc\r\nEXTRA\r\n"} {
		err := runAgainst(t, reply, wireDrainWait)
		if !errors.Is(err, errMalformed) {
			t.Errorf("reply %q: err = %v, want a malformed reply", reply, err)
		}
	}
}

// A server that stops answering ends the run once the wait runs out.
func TestWireSilentServerFails(t *testing.T) {
	err := runAgainst(t, "", 200*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "no reply") {
		t.Errorf("err = %v, want no reply", err)
	}
}

// A reply that parses but does not answer the request counts as a
// failed check, and the run goes on.
func TestWireWrongReplyCounts(t *testing.T) {
	w, err := dialWire(fakeServer(t, "END\r\n"), keyStrings(wireKeys))
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	res, err := newGenerator(w, 1).closedLoop(100, phWarm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.get.total().n + res.put.total().n; res.failed != n || n != 100 {
		t.Errorf("%d of %d replies failed, want all of 100", res.failed, n)
	}
}

// A short run against the real server passes every check and measures
// every end-to-end metric.
func TestWireRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the server six times")
	}
	e := &env{workload: "wire", seed: 1, seconds: 3 * time.Second} // enough sets for a put p99
	o, err := runWire(e)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d checks failed", o.failed)
	}
	for _, m := range endToEnd {
		if o.values[m.name] <= 0 {
			t.Errorf("%s = %g, want > 0", m.name, o.values[m.name])
		}
	}
}
