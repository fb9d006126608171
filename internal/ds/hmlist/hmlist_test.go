package hmlist_test

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/dstest"
	"pop/internal/ds/hmlist"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map { return hmlist.New(d) }, dstest.Config{
		KeyRange: 256, // short lists: maximal traversal contention
	})
}

func TestSentinelKeyPanics(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	l := hmlist.New(d)
	th := d.RegisterThread()
	for _, k := range []int64{math.MinInt64, math.MaxInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) did not panic", k)
				}
			}()
			l.Insert(th, k)
		}()
	}
}

// TestQuickSequentialEquivalence drives the list with random operation
// tapes and checks it behaves exactly like a map (property-based).
func TestQuickSequentialEquivalence(t *testing.T) {
	prop := func(tape []uint16) bool {
		d := core.NewDomain(core.HazardPtrPOP, 1, &core.Options{ReclaimThreshold: 16})
		th := d.RegisterThread()
		l := hmlist.New(d)
		ref := make(map[int64]bool)
		for _, w := range tape {
			k := int64(w % 64)
			switch (w / 64) % 3 {
			case 0:
				if l.Insert(th, k) == ref[k] {
					return false
				}
				ref[k] = true
			case 1:
				if _, ok := l.Delete(th, k); ok != ref[k] {
					return false
				}
				delete(ref, k)
			default:
				if l.Contains(th, k) != ref[k] {
					return false
				}
			}
		}
		return l.Size(th) == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestHelpingUnlink checks that a traversal physically unlinks logically
// deleted nodes: after a delete whose unlink CAS lost, a later Contains
// must still not observe the key.
func TestHelpingUnlink(t *testing.T) {
	d := core.NewDomain(core.HP, 1, nil)
	l := hmlist.New(d)
	th := d.RegisterThread()
	for k := int64(0); k < 100; k++ {
		l.Insert(th, k)
	}
	for k := int64(0); k < 100; k += 3 {
		l.Delete(th, k)
	}
	for k := int64(0); k < 100; k++ {
		want := k%3 != 0
		if got := l.Contains(th, k); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestNoVictimOutlivesItsOp overwrites two adjacent keys from two
// threads, so one overwrite's physical unlink often loses to the other's
// replace-CAS on its predecessor. Each operation must leave its victim
// unlinked and retired before it returns: after the threads stop and
// flush, with no further walk, every outstanding node is a live key.
func TestNoVictimOutlivesItsOp(t *testing.T) {
	for round := 0; round < 300; round++ {
		d := core.NewDomain(core.EBR, 2, &core.Options{ReclaimThreshold: 16})
		l := hmlist.New(d)
		th := []*core.Thread{d.RegisterThread(), d.RegisterThread()}
		l.Put(th[0], 1, 0)
		l.Put(th[0], 2, 0)
		var wg sync.WaitGroup
		for w := range th {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if w == 0 || i%2 == 0 {
						l.Put(th[w], int64(w+1), uint64(i))
					} else {
						l.Delete(th[w], int64(w+1)) // the delete path's unlink too
					}
				}
			}(w)
		}
		wg.Wait()
		for _, x := range th {
			x.Flush()
		}
		if out, size := l.Outstanding(), int64(l.Size(th[0])); out != size {
			t.Fatalf("round %d: Outstanding = %d, Size = %d: a marked victim stayed linked", round, out, size)
		}
	}
}
