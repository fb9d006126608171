package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram over non-negative int64
// nanoseconds: exact below 128, then 128 linear sub-buckets per power
// of two (under 0.8% bucket width). Quantiles interpolate inside the
// bucket, so a median moves continuously with the data instead of
// snapping to bucket edges. One goroutine owns each hist; merge them
// after the run.
type hist struct {
	counts [subBuckets * 36]uint64
	n      uint64
	max    int64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
)

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return subBuckets + shift*subBuckets + int(uint64(v)>>shift) - subBuckets
}

// bucketRange is the half-open value range [lo, hi) of bucket i.
func bucketRange(i int) (lo, hi int64) {
	if i < subBuckets {
		return int64(i), int64(i) + 1
	}
	shift := (i - subBuckets) / subBuckets
	m := int64(subBuckets + (i-subBuckets)%subBuckets)
	return m << shift, (m + 1) << shift
}

// maxValue keeps bucketOf inside counts (about 36 minutes in ns).
const maxValue = 1<<41 - 1

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	} else if v > maxValue {
		v = maxValue
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds: the value of rank
// q*n, interpolated linearly inside its bucket. 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketRange(i)
			if hi > h.max+1 {
				hi = h.max + 1
			}
			frac := (rank - cum) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// series is one latency histogram per time window of a phase. Its
// quantiles are medians over windows, so one bad second on a noisy
// machine cannot set a run's tail percentile on its own.
type series struct {
	start, width int64 // span clock
	wins         []hist
}

func newSeries(start int64, dur time.Duration, windows int) series {
	return series{start: start, width: max(int64(dur)/int64(windows), 1), wins: make([]hist, windows)}
}

// record adds v to the window holding time at.
func (s *series) record(at, v int64) {
	i := int((at - s.start) / s.width)
	s.wins[min(max(i, 0), len(s.wins)-1)].record(v)
}

// merge adds o window by window; both cover the same phase. An empty
// series takes o's windows.
func (s *series) merge(o *series) {
	if s.wins == nil {
		*s = series{start: o.start, width: o.width, wins: make([]hist, len(o.wins))}
	}
	for i := range s.wins {
		s.wins[i].merge(&o.wins[i])
	}
}

func (s *series) total() *hist {
	var t hist
	for i := range s.wins {
		t.merge(&s.wins[i])
	}
	return &t
}

// minGroup is the fewest samples a group of windows may hold: a p99
// needs at least ten samples beyond it.
const minGroup = 1000

// quantile is the median, over groups of consecutive windows, of each
// group's q-quantile, in nanoseconds. Windows are grouped so that each
// group holds at least minGroup samples (all of them, if there are
// fewer in total).
func (s *series) quantile(q float64) float64 {
	n := s.total().n
	groups := max(min(len(s.wins), int(n/minGroup)), 1)
	target := n / uint64(groups)
	var ends []int // exclusive end window of each group
	var cnt uint64
	for i := range s.wins {
		cnt += s.wins[i].n
		if cnt > 0 && cnt >= target {
			ends = append(ends, i+1)
			cnt = 0
		}
	}
	if len(ends) == 0 {
		ends = append(ends, len(s.wins))
	}
	ends[len(ends)-1] = len(s.wins) // a thin remainder joins the last group
	qs := make([]float64, 0, len(ends))
	lo := 0
	for _, hi := range ends {
		var g hist
		for i := lo; i < hi; i++ {
			g.merge(&s.wins[i])
		}
		qs = append(qs, g.quantile(q))
		lo = hi
	}
	return median(qs)
}
