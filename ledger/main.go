// Command ledger is the DLFS benchmark: one process stands up
// in-process TCP targets, drives one closed-loop workload through the
// live client's public entry points, checks every byte it receives, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	go run . --workload cold-ckpt --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dlfs/internal/dataset"
)

// setupsPerRun is how many times a run stands its deployment up at
// least (see repeatSetup); setup_s is the median, which keeps one slow
// set-up from moving it.
const setupsPerRun = 9

// options is one run's configuration. Only workload, seed, seconds and
// trace come from the command line in a benchmark run; the rest let the
// benchmark's own tests run it small.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string // where a traced run writes its Chrome trace ("" skips it)
	scale    float64
	setups   int // set-ups per run; setup_s is their median
	rounds   int // >0: exactly this many measured epochs or rounds, no time window
}

// done reports whether the measured loop should stop: after a fixed
// number of rounds when rounds is set; otherwise once the window has
// lasted --seconds, timed at least two blocks of data calls (see
// blockQuantile) and run for at least half of --seconds without steal
// (see host.go), or at the latest after maxWindowFactor times --seconds.
func (o options) done(start time.Time, rounds, waits int, h *hostSampler) bool {
	if o.rounds > 0 {
		return rounds >= o.rounds
	}
	el := time.Since(start)
	if el >= time.Duration(maxWindowFactor*float64(o.seconds)) {
		return true
	}
	return el >= o.seconds && waits >= 2*quantileBlock && h.cleanSince(start) >= o.seconds/2
}

// scaled shrinks n by the run's scale, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		return floor
	}
	return v
}

// iteration is one pass of a measured loop: an epoch with its eval pass
// and save, or a read round with its saves.
type iteration struct {
	interval
	waits     [2]int    // the range of outcome.waits it appended
	rate      float64   // samples per second of its epoch or read phase
	saveRates []float64 // GiB per second of each successful Save
}

// outcome is what one workload run measured.
type outcome struct {
	setups    []interval
	units     int64         // samples delivered, or ReadSample results
	unitBytes int64         // bytes of those
	window    time.Duration // wall time of the timed loop (epochs or read phases)
	iters     []iteration
	waits     []time.Duration // each data call's time; released by endWindow
	nbTime    time.Duration   // summed time blocked in the data calls
	epochs    int
	rounds    int
	saves     int
	saveTime  time.Duration

	// Set by endWindow from the iterations and set-ups that ran without
	// steal.
	setupTimes []float64 // seconds
	rates      []float64
	saveRates  []float64
	lat        latency
	waitP90    time.Duration
	waitP99    time.Duration
	cleanShare float64 // share of iterations counted
	stealShare float64 // share of the guest's CPU time stolen in the window
	peakHeap   uint64
	heap       uint64 // retained heap at the window's end

	attempted, failed int64
	wrongs            int
	mismatch          []string // first few correctness failures

	// Per-layer inputs.
	acct         *phaseAcct
	tr           *tracer
	stateBytes   int
	datasetBytes int64
	ranks        int
	final        layerFinal
}

// endWindow stops the host sampler and keeps, for the end-to-end
// metrics, the set-ups and iterations that ran with at most stealLimit
// of the guest's CPU stolen (all of them when none did, or when fewer
// than three set-ups did). It then releases the data-call times and
// measures the retained heap, so the benchmark's own bookkeeping (a
// million timings on cluster-peer) is not counted as the file system's
// memory.
func (o *outcome) endWindow(h *hostSampler, start time.Time) {
	end := time.Now()
	h.finish()
	o.peakHeap = h.peakHeap()
	o.stealShare = h.stolen(start, end)
	for _, s := range o.setups {
		if h.clean(s.start, s.end) {
			o.setupTimes = append(o.setupTimes, s.end.Sub(s.start).Seconds())
		}
	}
	if len(o.setupTimes) < 3 {
		o.setupTimes = o.setupTimes[:0]
		for _, s := range o.setups {
			o.setupTimes = append(o.setupTimes, s.end.Sub(s.start).Seconds())
		}
	}
	keep := make([]bool, len(o.iters))
	kept := 0
	for i, it := range o.iters {
		if keep[i] = h.clean(it.start, it.end); keep[i] {
			kept++
		}
	}
	var waits []time.Duration
	for i, it := range o.iters {
		if kept > 0 && !keep[i] {
			continue
		}
		o.rates = append(o.rates, it.rate)
		o.saveRates = append(o.saveRates, it.saveRates...)
		waits = append(waits, o.waits[it.waits[0]:it.waits[1]]...)
	}
	o.cleanShare = ratio(float64(kept), float64(len(o.iters)))
	o.lat = summarize(waits)
	o.waitP90 = blockQuantile(waits, 90)
	o.waitP99 = blockQuantile(waits, 99)
	o.waits = nil
	o.heap = retainedHeap()
}

// wrong records a correctness failure: a byte, index or Load mismatch.
func (o *outcome) wrong(format string, args ...any) {
	o.wrongs++
	if len(o.mismatch) < 10 {
		o.mismatch = append(o.mismatch, fmt.Sprintf(format, args...))
	}
}

// verifier checks delivered bytes against the dataset manifest.
type verifier struct {
	ds   *dataset.Dataset
	sums []uint32
}

func newVerifier(ds *dataset.Dataset) *verifier {
	v := &verifier{ds: ds, sums: make([]uint32, ds.Len())}
	var buf []byte
	for i, s := range ds.Samples {
		if cap(buf) < s.Size {
			buf = make([]byte, s.Size)
		}
		ds.FillContent(i, buf[:s.Size])
		v.sums[i] = dataset.ChecksumBytes(buf[:s.Size])
	}
	return v
}

func (v *verifier) check(idx int, b []byte) error {
	if idx < 0 || idx >= len(v.sums) {
		return fmt.Errorf("sample index %d out of range", idx)
	}
	if len(b) != v.ds.Samples[idx].Size {
		return fmt.Errorf("sample %d: %d bytes, manifest says %d", idx, len(b), v.ds.Samples[idx].Size)
	}
	if dataset.ChecksumBytes(b) != v.sums[idx] {
		return fmt.Errorf("sample %d: checksum mismatch", idx)
	}
	return nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and builds its report.
func run(o options) (*report, *outcome, error) {
	var out *outcome
	var err error
	switch o.workload {
	case "cold-ckpt":
		out, err = runEpochWorkload(o, coldCkpt)
	case "warm":
		out, err = runEpochWorkload(o, warm)
	case "cluster-peer":
		out, err = runClusterPeer(o)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want cold-ckpt, warm or cluster-peer)", o.workload)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	rep := &report{Correct: out.wrongs == 0, Attempted: out.attempted, Failed: out.failed}
	if o.trace {
		rep.Metrics = layerMetrics(out)
	} else {
		rep.Metrics = endToEnd(out)
	}
	return rep, out, nil
}

// endToEnd computes the metrics a user of the file system sees, from the
// set-ups and iterations endWindow kept. Rates are medians over epochs,
// read rounds and saves, and the p90 is a median over blocks of calls
// (blockQuantile), so one burst of interference from outside the
// process moves none of them.
func endToEnd(out *outcome) map[string]metricValue {
	return map[string]metricValue{
		"setup_s":           {median(out.setupTimes), "s"},
		"samples_per_s":     {median(out.rates), "1/s"},
		"wait_p50_us":       {us(out.lat.P50), "us"},
		"wait_p90_us":       {us(out.waitP90), "us"},
		"save_gib_per_s":    {median(out.saveRates), "GiB/s"},
		"retained_heap_mib": {float64(out.heap) / (1 << 20), "MiB"},
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold-ckpt, warm or cluster-peer")
	flag.Int64Var(&o.seed, "seed", 1, "seed the dataset, epoch orders, read indices and checkpoint state derive from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs with stage histograms and spans and reports per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory a traced run writes its Chrome trace to (empty skips it)")
	flag.Parse()
	if seconds <= 0 || math.IsNaN(seconds) || (trace != 0 && trace != 1) || o.seed < 0 {
		fmt.Fprintln(os.Stderr, "ledger: need --seconds > 0, --trace 0|1 and --seed >= 0")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.scale = 1
	o.setups = setupsPerRun
	if runtime.GOMAXPROCS(0) > procs {
		runtime.GOMAXPROCS(procs)
	}

	rep, out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	describe(os.Stderr, o, out)
	if o.trace && o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := out.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "ledger: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", out.tr.spanCount(), path)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		for _, m := range out.mismatch {
			fmt.Fprintln(os.Stderr, "ledger: MISMATCH:", m)
		}
		fmt.Fprintf(os.Stderr, "ledger: %d correctness failures\n", out.wrongs)
		os.Exit(1)
	}
}
