package main

import (
	"testing"
	"time"
)

func durs(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		// Reverse order: summarize must sort.
		ds[i] = time.Duration(n-i) * time.Microsecond
	}
	return ds
}

func TestPercentileNearestRank(t *testing.T) {
	s := []time.Duration{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {0.0001, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},  // the median leaves only 9 beyond
		{20, 50, true},  // exactly 10 beyond the median
		{39, 50, true},  // p75 would leave 9
		{40, 75, true},  // p75 leaves 10
		{100, 90, true}, // p90 leaves 10, p95 only 5
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSummarize(t *testing.T) {
	l := summarize(durs(1000))
	if l.N != 1000 || l.P50 != 500*time.Microsecond {
		t.Fatalf("summarize(1..1000us) = %+v", l)
	}
	if l.TailP != 99 || l.Tail != 990*time.Microsecond {
		t.Fatalf("tail = p%g %v, want p99 990us", l.TailP, l.Tail)
	}
	if got := summarize(nil); got != (latency{}) {
		t.Fatalf("summarize(nil) = %+v", got)
	}
	if got := summarize(durs(5)); got.TailP != 0 || got.P50 != 3*time.Microsecond {
		t.Fatalf("summarize(5 samples) = %+v, want p50 3us and no tail", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median odd = %g", m)
	}
	if xs[0] != 3 {
		t.Fatal("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %g", m)
	}
}

func TestBlockQuantileIsMedianOfBlocks(t *testing.T) {
	// Three blocks of 1000 calls; each block's p90 is 900, 1900 and
	// 2900us. One stall in the last block moves no block's p90.
	var ds []time.Duration
	for b := 0; b < 3; b++ {
		for i := 1; i <= quantileBlock; i++ {
			ds = append(ds, time.Duration(b*1000+i)*time.Microsecond)
		}
	}
	ds[len(ds)-1] = time.Second
	if got := blockQuantile(ds, 90); got != 1900*time.Microsecond {
		t.Fatalf("blockQuantile p90 = %v, want 1.9ms", got)
	}
	if ds[0] != time.Microsecond {
		t.Fatal("blockQuantile reordered its input")
	}
	// Under two blocks' worth it is the plain percentile.
	if got := blockQuantile(durs(1500), 90); got != 1350*time.Microsecond {
		t.Fatalf("blockQuantile of 1500 = %v, want 1.35ms", got)
	}
	if got := blockQuantile(nil, 90); got != 0 {
		t.Fatalf("blockQuantile(nil) = %v", got)
	}
}
