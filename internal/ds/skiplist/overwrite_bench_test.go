package skiplist_test

import (
	"fmt"
	"testing"

	"pop/internal/core"
	"pop/internal/ds/skiplist"
	"pop/internal/rng"
)

// BenchmarkOverwriteBySize is one single-threaded overwrite of a
// uniformly drawn key — index descent, replace-CAS, the victim's index
// purge, the replacement's column — at 4K, 64K and 512K prefilled keys,
// with plain uint64 values (no value arena). Every overwrite retires a
// node and a quarter of them purge a column, so ns/op shows how the
// purge scales: a purge positioned by index descents stays near flat
// across sizes (cache misses aside), one that walks a level from the
// head grows with the key count.
func BenchmarkOverwriteBySize(b *testing.B) {
	for _, keys := range []int{4 << 10, 64 << 10, 512 << 10} {
		d := core.NewDomain(core.EBR, 1, nil)
		l := skiplist.New(d)
		th := d.RegisterThread()
		for k := 0; k < keys; k++ {
			l.PutIfAbsent(th, int64(k), uint64(k))
		}
		r := rng.New(uint64(keys))
		b.Run(fmt.Sprintf("keys=%dK", keys>>10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Put(th, r.Intn(int64(keys)), uint64(i))
			}
		})
	}
}
