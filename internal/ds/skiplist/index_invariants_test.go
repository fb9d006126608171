package skiplist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"pop/internal/core"
	"pop/internal/ds/hmlist"
	"pop/internal/rng"
)

// checkIndex walks every index level from headCol and returns each
// broken index invariant. Quiescent use only. It checks that:
//
//   - keys never decrease along a level;
//   - no cell on any level is marked (every purge finished its unlinks);
//   - every column linked at level h > 0 is also linked at h-1;
//   - every column's n is non-nil and routes to a live (reachable,
//     unmarked) bottom node with the column's key, and no two columns
//     route to one node.
func checkIndex(l *List) []string {
	live := make(map[*hmlist.Node]bool)
	l.b.Live(func(n *hmlist.Node) { live[n] = true })
	routed := make(map[unsafe.Pointer]bool)
	var bad []string
	var below map[*column]bool
	for lvl := 0; lvl < maxIndexHeight; lvl++ {
		here := make(map[*column]bool)
		prev := l.headCol
		for raw := prev.right[lvl].Load(); ; raw = prev.right[lvl].Load() {
			if core.Marked(raw) {
				bad = append(bad, fmt.Sprintf("level %d: marked cell after key %d", lvl, prev.key))
			}
			c := (*column)(core.Mask(raw))
			if c == nil {
				bad = append(bad, fmt.Sprintf("level %d: nil cell after key %d", lvl, prev.key))
				break
			}
			if c == l.tailCol {
				break
			}
			if c.key < prev.key {
				bad = append(bad, fmt.Sprintf("level %d: key %d follows key %d", lvl, c.key, prev.key))
			}
			if lvl >= len(c.right) {
				bad = append(bad, fmt.Sprintf("level %d: column %d of height %d linked", lvl, c.key, len(c.right)))
				break
			}
			if lvl > 0 && !below[c] {
				bad = append(bad, fmt.Sprintf("level %d: column %d not linked at level %d", lvl, c.key, lvl-1))
			}
			if lvl == 0 {
				n := c.n.Load()
				switch {
				case n == nil:
					bad = append(bad, fmt.Sprintf("column %d: n cleared while linked", c.key))
				case !live[(*hmlist.Node)(n)]:
					bad = append(bad, fmt.Sprintf("column %d: routes to a node that is not live", c.key))
				case (*hmlist.Node)(n).Key() != c.key:
					bad = append(bad, fmt.Sprintf("column %d: routes to node key %d", c.key, (*hmlist.Node)(n).Key()))
				case routed[n]:
					bad = append(bad, fmt.Sprintf("column %d: a second column routes to its node", c.key))
				}
				routed[n] = true
			}
			here[c] = true
			prev = c
		}
		below = here
	}
	return bad
}

// TestIndexInvariantStorm runs overwrite, delete and insert churn on a
// small key range — so each key's older and newer columns overlap and
// equal-key runs pile up on every level — beside range scanners, under
// every policy. After quiescence and a flush, the index must pass
// checkIndex and every outstanding node must be a live key.
func TestIndexInvariantStorm(t *testing.T) {
	for _, p := range core.Policies() {
		t.Run(p.String(), func(t *testing.T) {
			indexStorm(t, p, 3, 1, 20000)
		})
	}
}

func indexStorm(t *testing.T, p core.Policy, writers, scanners, ops int) {
	const keyRange = 48
	d := core.NewDomain(p, writers+scanners, &core.Options{
		ReclaimThreshold: 32,
		EpochFreq:        8,
		BatchSize:        8,
	})
	l := New(d)
	// Check each purge's postcondition as it returns, before walkers can
	// help a column its purge left linked out of the chain.
	var strays atomic.Int64
	l.b.EnableLinking(func(t *core.Thread, victim *hmlist.Node) {
		_, _, c := l.seek(victim.Key(), 0, unsafe.Pointer(victim))
		l.purgeIndex(t, victim)
		if c != nil && (c.n.Load() != nil || l.reachable(c)) {
			strays.Add(1)
		}
	})
	threads := make([]*core.Thread, writers+scanners)
	for i := range threads {
		threads[i] = d.RegisterThread()
	}
	for k := int64(0); k < keyRange; k += 2 {
		l.PutIfAbsent(threads[0], k, uint64(k))
	}

	var writeWG, scanWG sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < scanners; s++ {
		scanWG.Add(1)
		go func(th *core.Thread, seed uint64) {
			defer scanWG.Done()
			r := rng.New(seed)
			var buf []int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := int64(r.Intn(keyRange))
				hi := lo + int64(r.Intn(keyRange/2))
				buf = l.RangeCollect(th, lo, hi, buf)
				for j := 1; j < len(buf); j++ {
					if buf[j-1] >= buf[j] {
						t.Errorf("scan [%d,%d] not strictly ascending: %v", lo, hi, buf)
						return
					}
				}
			}
		}(threads[writers+s], uint64(s)*0x9e3779b97f4a7c15+0x1dc5)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(th *core.Thread, seed uint64) {
			defer writeWG.Done()
			r := rng.New(seed)
			for i := 0; i < ops; i++ {
				k := int64(r.Intn(keyRange))
				switch r.Intn(8) {
				case 0, 1, 2, 3:
					l.Put(th, k, uint64(i)) // overwrite: retires, purges, re-links
				case 4, 5:
					l.Delete(th, k)
				default:
					l.PutIfAbsent(th, k, uint64(i))
				}
			}
		}(threads[w], uint64(w)*0xff51afd7ed558ccd+0x51de)
	}
	writeWG.Wait()
	close(stop)
	scanWG.Wait()
	for _, th := range threads {
		th.Flush()
	}

	if n := strays.Load(); n != 0 {
		t.Errorf("%v: %d purged columns still reachable or routing", p, n)
	}
	for _, v := range checkIndex(l) {
		t.Errorf("%v: %s", p, v)
	}
	if p != core.NR {
		if out, size := l.Outstanding(), int64(l.Size(threads[0])); out != size {
			t.Errorf("%v: Outstanding = %d, Size = %d after quiescent flush", p, out, size)
		}
	}
}

// reachable reports whether c is linked at any of its levels: a plain
// walk from headCol that follows marked cells without helping.
func (l *List) reachable(c *column) bool {
	for lvl := range c.right {
		s := l.headCol
		for s != l.tailCol && s.key <= c.key {
			if s == c {
				return true
			}
			s = (*column)(core.Mask(s.right[lvl].Load()))
		}
	}
	return false
}

// purgeSkipping is purgeIndex with level skip's unlink left out: the
// seeded violation checkIndex must catch.
func (l *List) purgeSkipping(skip int) func(*core.Thread, *hmlist.Node) {
	return func(t *core.Thread, victim *hmlist.Node) {
		_, _, c := l.seek(victim.Key(), 0, unsafe.Pointer(victim))
		if c == nil {
			return
		}
		for lvl := len(c.right) - 1; lvl >= 0; lvl-- {
			for {
				raw := c.right[lvl].Load()
				if core.Marked(raw) || c.right[lvl].CompareAndSwap(raw, core.WithMark(raw)) {
					break
				}
			}
		}
		for lvl := len(c.right) - 1; lvl >= 0; lvl-- {
			if lvl != skip {
				l.unlinkIndexLevel(c, lvl)
			}
		}
		c.n.Store(nil)
	}
}

// TestIndexInvariantSeededViolation proves checkIndex has teeth: with a
// purge that leaves one level of a tall column linked, deleting that
// column's key must fail the walk, whether the skipped level is the
// bottom one or the top one.
func TestIndexInvariantSeededViolation(t *testing.T) {
	for _, top := range []bool{false, true} {
		d := core.NewDomain(core.EBR, 1, nil)
		l := New(d)
		th := d.RegisterThread()
		for k := int64(0); k < 4096; k++ {
			l.PutIfAbsent(th, k, uint64(k))
		}
		if bad := checkIndex(l); len(bad) != 0 {
			t.Fatalf("clean index fails the walk: %v", bad)
		}
		// A column of height >= 2: the first one linked at level 1.
		c := (*column)(l.headCol.right[1].Load())
		if c == l.tailCol {
			t.Fatal("no column of height >= 2 in 4096 keys")
		}
		skip := 0
		if top {
			skip = len(c.right) - 1
		}
		l.b.EnableLinking(l.purgeSkipping(skip))
		if _, ok := l.Delete(th, c.key); !ok {
			t.Fatalf("delete %d: absent", c.key)
		}
		if bad := checkIndex(l); len(bad) == 0 {
			t.Errorf("purge skipping level %d of column %d (height %d) passed the walk", skip, c.key, len(c.right))
		}
	}
}
