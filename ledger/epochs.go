package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"dlfs/internal/dataset"
	"dlfs/internal/live"
)

// epochSpec is a single-mount training loop: epochs through
// FS.Sequence/Epoch.NextBatch, each followed by a checkpoint save.
type epochSpec struct {
	samples    int
	dist       dataset.SizeDist
	stateBytes int
	// crossEpoch turns on clairvoyant cross-epoch prefetch. The loop then
	// waits for each lookahead round (FS.WaitPrefetch) outside the timed
	// epoch, the way a per-epoch evaluation pass would give it time.
	crossEpoch bool
}

// coldCkpt streams an ImageNet-like dataset about three times the size of
// the client's chunk arena plus read cache, so nearly every epoch byte
// crosses the wire, and saves a 48 MiB checkpoint after every epoch.
var coldCkpt = epochSpec{samples: 2000, dist: dataset.ImageNetDist(), stateBytes: 48 << 20}

// warm replays an IMDB-like dataset that fits the lookahead budget, so
// epochs are served from the client's prefetch store and per-sample
// client costs dominate. Its checkpoint is small, as text models are.
var warm = epochSpec{samples: 8000, dist: dataset.IMDBDist(), stateBytes: 8 << 20, crossEpoch: true}

// epochSeed derives the seed of the e-th epoch of a run. Consecutive
// epochs get consecutive seeds, which is what the client's default
// next-epoch predictor assumes.
func epochSeed(seed int64, e int) int64 { return seed*1_000_003 + int64(e) }

// newState returns the run's checkpoint state, derived from seed.
func newState(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(b) //nolint:gosec // benchmark input, not crypto
	return b
}

// stamp makes each save's state differ from the last, so a Load cannot
// pass on a stale slot.
func stamp(state []byte, step uint64) {
	binary.LittleEndian.PutUint64(state[0:8], step)
	off := int(step*4099) % (len(state) - 8)
	binary.LittleEndian.PutUint64(state[off:], step)
}

// epochRun is the state of one epoch workload run.
type epochRun struct {
	o     options
	sp    epochSpec
	ds    *dataset.Dataset
	ver   *verifier
	tr    *tracer
	l     *lane
	out   *outcome
	env   *env
	state []byte
	step  uint64
	seen  []bool
	// measuring is set once the measured window opens; only then do
	// waits, samples and failures count toward the end-to-end metrics.
	measuring bool
}

func runEpochWorkload(o options, sp epochSpec) (*outcome, error) {
	n := scaled(sp.samples, o.scale, 100)
	ds := dataset.Generate(dataset.Config{Label: o.workload, Seed: o.seed, NumSamples: n, Dist: sp.dist})
	r := &epochRun{
		o: o, sp: sp, ds: ds, ver: newVerifier(ds),
		out:   &outcome{ranks: 1},
		state: newState(o.seed, scaled(sp.stateBytes, o.scale, 2<<20)),
		seen:  make([]bool, ds.Len()),
	}
	if o.trace {
		r.tr = newTracer()
	}
	r.l = r.tr.lane()
	r.out.tr = r.tr

	host := startHostSampler()
	defer host.finish()
	var err error
	if r.out.setups, err = repeatSetup(host, o.setups, &r.env, r.setup); err != nil {
		return nil, err
	}
	defer r.env.close()
	if err := r.measure(host); err != nil {
		return nil, err
	}
	return r.out, nil
}

// setup stands up targets, mounts (uploading the dataset), runs the
// warm-up epoch and the first save.
func (r *epochRun) setup() error {
	r.l.begin("setup", 0)
	defer r.l.end()
	r.env = &env{}
	if err := r.env.startTargets(2, r.o.trace); err != nil {
		return err
	}
	r.l.begin("live.Mount", 0)
	fs, err := live.Mount(r.env.addrs, r.ds, live.Config{
		QueuePairs:         1,
		Prefetchers:        procs,
		CrossEpochPrefetch: r.sp.crossEpoch,
		StageHistograms:    r.o.trace,
	})
	r.l.end()
	if err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	r.env.fss = append(r.env.fss, fs)
	ck, err := fs.Checkpointer(live.CheckpointConfig{})
	if err != nil {
		return fmt.Errorf("checkpointer: %w", err)
	}
	r.env.ckpts = append(r.env.ckpts, ck)
	r.step = 0
	if _, err := r.epoch(-1); err != nil {
		return fmt.Errorf("warm-up epoch: %w", err)
	}
	if r.sp.crossEpoch {
		r.l.begin("live.WaitPrefetch", 0)
		fs.WaitPrefetch()
		r.l.end()
	}
	if _, err := r.save(); err != nil {
		return fmt.Errorf("first save: %w", err)
	}
	return nil
}

// measure runs epochs and saves until the window closes, then checks a
// byte-exact Load of the last saved state.
func (r *epochRun) measure(host *hostSampler) error {
	acct := newPhaseAcct(r.env, r.tr)
	ph0, sh0 := r.env.hists()
	r.tr.startWindow()
	r.measuring = true
	mStart := time.Now()
	for !r.o.done(mStart, r.out.epochs, len(r.out.waits), host) {
		it := iteration{interval: interval{start: time.Now()}, waits: [2]int{len(r.out.waits), 0}}
		u0 := r.out.units
		d, err := r.epoch(r.out.epochs)
		if err != nil {
			return err
		}
		r.out.window += d
		it.rate = float64(r.out.units-u0) / d.Seconds()
		r.out.epochs++
		acct.mark(r.l, "epoch")
		if r.sp.crossEpoch {
			r.l.begin("live.WaitPrefetch", int64(r.out.epochs))
			r.env.fss[0].WaitPrefetch()
			r.l.end()
			acct.mark(r.l, "eval")
		}
		if d, err := r.save(); err == nil {
			it.saveRates = append(it.saveRates, float64(len(r.state))/(1<<30)/d.Seconds())
		}
		acct.mark(r.l, "save")
		it.end = time.Now()
		it.waits[1] = len(r.out.waits)
		r.out.iters = append(r.out.iters, it)
	}
	r.out.endWindow(host, mStart)
	r.out.acct = acct
	r.out.stateBytes = len(r.state)
	r.out.datasetBytes = r.ds.TotalBytes()
	r.out.layerEnd(r.env, ph0, sh0)

	r.l.begin("live.Checkpointer.Load", int64(r.step))
	got, step, err := r.env.ckpts[0].Load()
	r.l.end()
	r.out.attempted++
	if err != nil {
		r.out.failed++
		return nil
	}
	if step != r.step || !bytes.Equal(got, r.state) {
		r.out.wrong("Load returned step %d (%d bytes), want step %d (%d bytes) byte-exact", step, len(got), r.step, len(r.state))
	}
	r.env.fss[0].Recycle(got)
	return nil
}

// save stamps and saves the next checkpoint step and returns how long
// the Save took. Inside the measured window it also counts the attempt.
func (r *epochRun) save() (time.Duration, error) {
	r.step++
	stamp(r.state, r.step)
	r.l.begin("live.Checkpointer.Save", int64(r.step))
	t0 := time.Now()
	err := r.env.ckpts[0].Save(r.step, r.state)
	d := time.Since(t0)
	r.l.end()
	if err != nil {
		// A failed save leaves the last committed step in place.
		r.step--
	}
	if r.measuring {
		r.out.attempted++
		if err != nil {
			r.out.failed++
		} else {
			r.out.saves++
			r.out.saveTime += d
		}
	}
	return d, err
}

// epoch consumes one epoch batch by batch, verifying every sample and
// that each index arrives exactly once, and returns its wall time. A
// transport error ends the epoch and counts as one failed batch;
// outside the measured window it is returned instead.
func (r *epochRun) epoch(e int) (time.Duration, error) {
	fs := r.env.fss[0]
	req := int64(e) << 20
	r.l.begin("epoch", req)
	defer r.l.end()
	t0 := time.Now()
	r.l.begin("live.Sequence", req)
	ep, err := fs.Sequence(epochSeed(r.o.seed, e+1))
	r.l.end()
	if err != nil {
		return 0, fmt.Errorf("sequence: %w", err)
	}
	for i := range r.seen {
		r.seen[i] = false
	}
	got, gotBytes := 0, int64(0)
	for b := 0; ; b++ {
		r.l.begin("live.NextBatch", req|int64(b))
		c0 := time.Now()
		items, ok, err := ep.NextBatch()
		d := time.Since(c0)
		r.l.end()
		if r.measuring && (len(items) > 0 || err != nil) {
			r.out.attempted++
			r.out.waits = append(r.out.waits, d)
			r.out.nbTime += d
		}
		r.l.begin("verify", req|int64(b))
		for _, it := range items {
			if err := r.ver.check(it.Index, it.Data); err != nil {
				r.out.wrong("epoch %d: %v", e, err)
				continue
			}
			if r.seen[it.Index] {
				r.out.wrong("epoch %d: sample %d delivered twice", e, it.Index)
			}
			r.seen[it.Index] = true
			gotBytes += int64(len(it.Data))
		}
		got += len(items)
		r.l.end()
		r.l.begin("live.RecycleItems", req|int64(b))
		fs.RecycleItems(items)
		r.l.end()
		if err != nil {
			if !r.measuring {
				return 0, err
			}
			r.out.failed++
			r.out.units += int64(got)
			r.out.unitBytes += gotBytes
			return time.Since(t0), nil
		}
		if !ok {
			break
		}
	}
	if got != r.ds.Len() {
		r.out.wrong("epoch %d delivered %d of %d samples", e, got, r.ds.Len())
	}
	if r.measuring {
		r.out.units += int64(got)
		r.out.unitBytes += gotBytes
	}
	return time.Since(t0), nil
}
