package skiplist_test

import (
	"sync"
	"testing"

	"pop/internal/core"
	"pop/internal/ds"
	"pop/internal/ds/dstest"
	"pop/internal/ds/skiplist"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(d *core.Domain) ds.Map { return skiplist.New(d) }, dstest.Config{})
}

// TestRangeEdges exercises degenerate bounds. (Randomized range
// validation against a reference model runs in TestConformance via
// dstest's RangeSequentialVsRef/RangeOwnedStripes suites.)
func TestRangeEdges(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	l := skiplist.New(d)
	th := d.RegisterThread()
	for _, k := range []int64{-5, 0, 3, 7, 100} {
		l.Insert(th, k)
	}
	if got := l.RangeCount(th, 10, 5); got != 0 {
		t.Fatalf("inverted range counted %d", got)
	}
	if got := l.RangeCount(th, -1000, 1000); got != 5 {
		t.Fatalf("covering range counted %d, want 5", got)
	}
	if got := l.RangeCount(th, 3, 3); got != 1 {
		t.Fatalf("point range counted %d, want 1", got)
	}
	if got := l.RangeCount(th, 4, 6); got != 0 {
		t.Fatalf("empty gap counted %d, want 0", got)
	}
	if buf := l.RangeCollect(th, 0, 7, nil); len(buf) != 3 || buf[0] != 0 || buf[1] != 3 || buf[2] != 7 {
		t.Fatalf("RangeCollect(0,7) = %v", buf)
	}
}

// TestTowerHeightsReasonable sanity-checks the geometric height draw by
// inserting many keys and verifying multi-level towers exist (coverage
// for the upper-level link path).
func TestTowerHeightsReasonable(t *testing.T) {
	d := core.NewDomain(core.EBR, 1, nil)
	l := skiplist.New(d)
	th := d.RegisterThread()
	for k := int64(0); k < 4096; k++ {
		l.Insert(th, k)
	}
	if got := l.Size(th); got != 4096 {
		t.Fatalf("Size = %d, want 4096", got)
	}
	// A 4096-key skiplist with geometric heights has ~2048 towers of
	// height >= 2; the range scan must still see every key.
	if got := l.RangeCount(th, 0, 4095); got != 4096 {
		t.Fatalf("RangeCount over all = %d, want 4096", got)
	}
}

// TestNoVictimOutlivesItsOp is hmlist's test of the same name through
// the index: below the two contended keys sit enough keys for columns,
// so the overwrites and deletes take hinted walks. Each operation must
// leave its victim unlinked and retired before it returns.
func TestNoVictimOutlivesItsOp(t *testing.T) {
	for round := 0; round < 300; round++ {
		d := core.NewDomain(core.EBR, 2, &core.Options{ReclaimThreshold: 16})
		l := skiplist.New(d)
		th := []*core.Thread{d.RegisterThread(), d.RegisterThread()}
		for k := int64(0); k < 66; k++ {
			l.Put(th[0], k, 0)
		}
		var wg sync.WaitGroup
		for w := range th {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if w == 0 || i%2 == 0 {
						l.Put(th[w], int64(64+w), uint64(i))
					} else {
						l.Delete(th[w], int64(64+w))
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
