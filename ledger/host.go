package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on may be a virtual machine whose
// hypervisor takes CPU time away ("steal") when other guests are busy.
// On a 2-vCPU guest such episodes last a minute or more and halve the
// throughput of every workload, so a run that falls inside one says
// nothing about the program. The host sampler reads the guest's steal
// time every stealSlot and at the end of every set-up; iterations and
// set-ups during which more than stealLimit of the guest's CPU time was
// stolen are left out of the end-to-end metrics, and the set-ups and the
// measured window are extended (up to half as many set-ups again, and
// maxWindowFactor times --seconds) until they hold enough clean ones.
// Where the kernel reports no steal time, everything counts.

const (
	stealSlot       = 250 * time.Millisecond
	stealLimit      = 0.05
	maxWindowFactor = 2.5
)

// hostSample is one reading of the guest's cumulative steal time.
type hostSample struct {
	at    time.Time
	steal time.Duration
}

// hostSampler records the peak Go heap in use and the guest's steal time
// while it runs.
type hostSampler struct {
	stop chan struct{}
	once sync.Once
	done sync.WaitGroup
	ncpu int // CPUs the steal time is summed over; 0 when unreported

	mu      sync.Mutex
	samples []hostSample
	peak    uint64
}

// heapInuse reads HeapInuse without stopping the world.
func heapInuse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// readSteal returns the guest's cumulative steal time summed over its
// CPUs, and the number of CPUs, from /proc/stat ("cpu" line, eighth
// value, in USER_HZ = 100 ticks per second). ncpu is 0 when the kernel
// does not report it.
func readSteal() (steal time.Duration, ncpu int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		switch {
		case len(f) > 8 && string(f[0]) == "cpu":
			ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
			if err != nil {
				return 0, 0
			}
			steal = time.Duration(ticks) * 10 * time.Millisecond
		case len(f) > 0 && bytes.HasPrefix(f[0], []byte("cpu")):
			ncpu++
		}
	}
	return steal, ncpu
}

func startHostSampler() *hostSampler {
	h := &hostSampler{stop: make(chan struct{}), peak: heapInuse()}
	h.sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		heap := time.NewTicker(25 * time.Millisecond)
		defer heap.Stop()
		slot := time.NewTicker(stealSlot)
		defer slot.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-heap.C:
				v := heapInuse()
				h.mu.Lock()
				if v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			case <-slot.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *hostSampler) sample() {
	steal, ncpu := readSteal()
	h.mu.Lock()
	h.ncpu = ncpu
	h.samples = append(h.samples, hostSample{at: time.Now(), steal: steal})
	h.mu.Unlock()
}

// finish stops the sampler, waits for it, and takes a last sample so
// that every interval that has ended is covered. Later calls do nothing.
func (h *hostSampler) finish() {
	h.once.Do(func() {
		close(h.stop)
		h.done.Wait()
		h.sample()
	})
}

func (h *hostSampler) peakHeap() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// share is the fraction of the guest's CPU time stolen between samples
// a and b.
func (h *hostSampler) share(a, b hostSample) float64 {
	wall := b.at.Sub(a.at)
	if h.ncpu == 0 || wall <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / (float64(h.ncpu) * float64(wall))
}

// stolen returns the steal share over the samples enclosing [t0, t1].
func (h *hostSampler) stolen(t0, t1 time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	// i: the last sample at or before t0; j: the first at or after t1.
	i := sort.Search(n, func(k int) bool { return h.samples[k].at.After(t0) }) - 1
	j := sort.Search(n, func(k int) bool { return !h.samples[k].at.Before(t1) })
	if i < 0 {
		i = 0
	}
	if j >= n {
		j = n - 1
	}
	if j <= i {
		j = i + 1
		if j >= n {
			i, j = n-2, n-1
		}
	}
	return h.share(h.samples[i], h.samples[j])
}

// clean reports whether [t0, t1] ran with at most stealLimit stolen.
func (h *hostSampler) clean(t0, t1 time.Time) bool { return h.stolen(t0, t1) <= stealLimit }

// cleanSince returns how much time since t0 fell in sample slots with
// at most stealLimit stolen.
func (h *hostSampler) cleanSince(t0 time.Time) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var d time.Duration
	for k := 1; k < len(h.samples); k++ {
		a, b := h.samples[k-1], h.samples[k]
		if !a.at.Before(t0) && h.share(a, b) <= stealLimit {
			d += b.at.Sub(a.at)
		}
	}
	return d
}
