package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is reported at, highest
// first. A percentile is only reported when at least minBeyond samples
// lie above it, so a tail never rests on a handful of observations.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// nearestRank is the 1-based rank of the p-th percentile (0 < p <= 100)
// of n samples. The small epsilon keeps p*n/100 from rounding up past an
// exact integer (99.9% of 10000 is 9990, not 9991).
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile returns the p-th percentile of sorted by the nearest-rank
// rule. sorted must be ascending and non-empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[nearestRank(len(sorted), p)-1]
}

// beyond reports how many of n samples lie strictly above the p-th
// percentile's rank.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, and false when even the median
// has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latency summarises one set of timings the way the ledger reports them:
// the median and the highest percentile with at least minBeyond samples
// beyond it, with the sample count.
type latency struct {
	N     int
	P50   time.Duration
	TailP float64 // 0 when no percentile qualifies
	Tail  time.Duration
}

func summarize(ds []time.Duration) latency {
	if len(ds) == 0 {
		return latency{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	l := latency{N: len(s), P50: percentile(s, 50)}
	if p, ok := tailPercentile(len(s)); ok {
		l.TailP, l.Tail = p, percentile(s, p)
	}
	return l
}

func (l latency) String() string {
	if l.TailP == 0 {
		return fmt.Sprintf("p50 %v over n=%d (no tail percentile has %d samples beyond it)", l.P50, l.N, minBeyond)
	}
	return fmt.Sprintf("p50 %v, p%g %v over n=%d", l.P50, l.TailP, l.Tail, l.N)
}

// quantileBlock is how many consecutive data calls blockQuantile takes
// a percentile over: the fewest that leave minBeyond samples beyond the
// p99.
const quantileBlock = 100 * minBeyond

// blockQuantile splits ds, in call order, into consecutive blocks of at
// least quantileBlock calls and returns the median of the blocks' p-th
// percentiles; with fewer than two blocks' worth it is the p-th
// percentile of all of ds. A tail that shows in most stretches of a run
// moves it; one stall in one stretch does not.
func blockQuantile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	blocks := len(ds) / quantileBlock
	if blocks < 2 {
		s := append([]time.Duration(nil), ds...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return percentile(s, p)
	}
	q := make([]float64, blocks)
	s := make([]time.Duration, 0, 2*quantileBlock)
	for b := range q {
		s = append(s[:0], ds[b*len(ds)/blocks:(b+1)*len(ds)/blocks]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		q[b] = float64(percentile(s, p))
	}
	return time.Duration(median(q))
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none; xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
