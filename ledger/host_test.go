package main

import (
	"testing"
	"time"
)

// stealFixture is a finished sampler over four 250ms slots of a 2-CPU
// guest; the third slot had 40% of its CPU time stolen.
func stealFixture() (*hostSampler, func(ms int) time.Time) {
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	h := startHostSampler()
	h.finish()
	h.ncpu = 2
	h.samples = []hostSample{{at(0), 0}, {at(250), 0}, {at(500), 0}, {at(750), 200 * time.Millisecond}, {at(1000), 200 * time.Millisecond}}
	return h, at
}

func TestStealClassifiesByEnclosingSlots(t *testing.T) {
	h, at := stealFixture()
	for _, c := range []struct {
		from, to int
		clean    bool
	}{
		{10, 240, true},
		{260, 490, true},
		{510, 740, false},  // inside the stolen slot
		{400, 600, false},  // spans slots 2-3: 200ms of 1000ms CPU = 20%
		{760, 990, true},   // after it
		{-50, 1200, false}, // whole run: 10%
	} {
		if got := h.clean(at(c.from), at(c.to)); got != c.clean {
			t.Errorf("clean(%d, %d) = %v (stolen %.2f), want %v", c.from, c.to, got, h.stolen(at(c.from), at(c.to)), c.clean)
		}
	}
	if got := h.cleanSince(at(0)); got != 750*time.Millisecond {
		t.Errorf("cleanSince = %v, want 750ms", got)
	}
	if got := h.cleanSince(at(300)); got != 250*time.Millisecond {
		t.Errorf("cleanSince(300ms) = %v, want 250ms", got)
	}
}

func TestEndWindowKeepsCleanIterations(t *testing.T) {
	h, at := stealFixture()
	o := &outcome{ranks: 1}
	for i := 0; i < 4; i++ {
		o.waits = append(o.waits, time.Duration(i+1)*time.Millisecond)
		o.iters = append(o.iters, iteration{
			interval:  interval{at(250*i + 10), at(250*i + 240)},
			waits:     [2]int{i, i + 1},
			rate:      float64(100 * (i + 1)),
			saveRates: []float64{float64(i + 1)},
		})
		o.setups = append(o.setups, interval{at(250*i + 10), at(250*i + 240)})
	}
	o.endWindow(h, at(0))
	if len(o.rates) != 3 || o.rates[2] != 400 || o.cleanShare != 0.75 {
		t.Fatalf("rates %v clean share %g, want the stolen third iteration dropped", o.rates, o.cleanShare)
	}
	if len(o.saveRates) != 3 || o.lat.N != 3 || o.lat.P50 != 2*time.Millisecond {
		t.Fatalf("save rates %v, waits %+v", o.saveRates, o.lat)
	}
	if len(o.setupTimes) != 3 || o.waits != nil || o.heap == 0 {
		t.Fatalf("setup times %v, waits kept %v, heap %d", o.setupTimes, o.waits != nil, o.heap)
	}

	// When every iteration ran while stealing, all of them count.
	h.samples = []hostSample{{at(0), 0}, {at(1000), time.Second}}
	o = &outcome{ranks: 1, waits: []time.Duration{time.Millisecond}, iters: []iteration{{interval: interval{at(10), at(20)}, waits: [2]int{0, 1}, rate: 5}}}
	o.endWindow(h, at(0))
	if len(o.rates) != 1 || o.cleanShare != 0 {
		t.Fatalf("all-stolen run: rates %v clean share %g", o.rates, o.cleanShare)
	}
}
