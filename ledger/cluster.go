package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dlfs/internal/coord"
	"dlfs/internal/dataset"
	"dlfs/internal/live"
	dlfsmetrics "dlfs/internal/metrics"
)

// cluster-peer: two ranks, one target each, mounted through a 3-replica
// coordinator set with the cooperative peer cache on. Each rank loops
// over seeded uniform-random ReadSample calls; after every round of
// clusterRoundReads reads per rank, both ranks save a checkpoint, which
// ends in a coordinator barrier.
//
// The coordinator set has three replicas because a one-replica set never
// elects itself a leader (its election has no peers to ask for votes),
// so a one-replica cluster mount fails with "no leader".
const (
	clusterWorld       = 2
	clusterReplicas    = 3
	clusterSamples     = 4000
	clusterSampleBytes = 16 << 10
	clusterStateBytes  = 8 << 20
	clusterRoundReads  = 4000
	// clusterCacheSlack is how much each rank's read cache holds beyond
	// its home shard: enough to keep some peers' samples, not the whole
	// dataset.
	clusterCacheSlack = 8 << 20
)

type clusterRun struct {
	o     options
	ds    *dataset.Dataset
	ver   *verifier
	tr    *tracer
	main  *lane
	lanes []*lane
	rngs  []*rand.Rand
	out   *outcome
	env   *env
	state [][]byte
	step  uint64

	measuring bool
	mu        sync.Mutex // guards out while ranks run concurrently
}

func runClusterPeer(o options) (*outcome, error) {
	n := scaled(clusterSamples, o.scale, 200)
	ds := dataset.Generate(dataset.Config{Label: o.workload, Seed: o.seed, NumSamples: n, Dist: dataset.Fixed(clusterSampleBytes)})
	r := &clusterRun{o: o, ds: ds, ver: newVerifier(ds), out: &outcome{ranks: clusterWorld}}
	if o.trace {
		r.tr = newTracer()
	}
	r.out.tr = r.tr
	r.main = r.tr.lane()
	for rank := 0; rank < clusterWorld; rank++ {
		r.lanes = append(r.lanes, r.tr.lane())
		r.state = append(r.state, newState(o.seed+int64(rank), scaled(clusterStateBytes, o.scale, 2<<20)))
	}

	host := startHostSampler()
	defer host.finish()
	var err error
	if r.out.setups, err = repeatSetup(host, o.setups, &r.env, r.setup); err != nil {
		return nil, err
	}
	defer r.env.close()
	r.measure(host)
	return r.out, nil
}

// setup stands up targets and the coordinator set, mounts both ranks,
// warms their read caches with one round of reads, and takes the first
// save.
func (r *clusterRun) setup() error {
	r.main.begin("setup", 0)
	defer r.main.end()
	r.env = &env{cons: &dlfsmetrics.Consensus{}}
	if err := r.env.startTargets(clusterWorld, r.o.trace); err != nil {
		return err
	}
	// The replicas' election timers keep their fixed default seeds: they
	// are the program's own randomness, not an input, and seeding them
	// from the workload seed made set-up time bimodal across seeds (0.75
	// or 1.2 s, depending on how soon the first election fired).
	srvs, peers, err := coord.StartReplicaSet(clusterReplicas, clusterWorld, coord.ReplicatedOptions{Metrics: r.env.cons})
	if err != nil {
		return fmt.Errorf("coordinator set: %w", err)
	}
	r.env.replicas = srvs
	cfg := live.Config{
		QueuePairs:      1,
		Prefetchers:     procs,
		PeerCache:       true,
		ReadCacheBytes:  r.ds.TotalBytes()/clusterWorld + clusterCacheSlack,
		StageHistograms: r.o.trace,
	}
	fss := make([]*live.FS, clusterWorld)
	errs := make([]error, clusterWorld)
	r.parallel(func(rank int, l *lane) {
		l.begin("live.MountClusterPeers", int64(rank))
		fss[rank], errs[rank] = live.MountClusterPeers(peers, rank, clusterWorld, r.env.addrs, r.ds, cfg)
		l.end()
	})
	for rank, fs := range fss {
		if fs != nil {
			r.env.fss = append(r.env.fss, fs)
		}
		if errs[rank] != nil {
			return fmt.Errorf("rank %d mount: %w", rank, errs[rank])
		}
	}
	for rank, fs := range fss {
		ck, err := fs.Checkpointer(live.CheckpointConfig{})
		if err != nil {
			return fmt.Errorf("rank %d checkpointer: %w", rank, err)
		}
		r.env.ckpts = append(r.env.ckpts, ck)
	}
	r.step = 0
	r.rngs = r.rngs[:0]
	for rank := 0; rank < clusterWorld; rank++ {
		r.rngs = append(r.rngs, rand.New(rand.NewSource(r.o.seed*7919+int64(rank)))) //nolint:gosec // benchmark input
	}
	if err := r.readRound(-1); err != nil {
		return fmt.Errorf("warm-up reads: %w", err)
	}
	if _, err := r.saveRound(); err != nil {
		return fmt.Errorf("first save: %w", err)
	}
	return nil
}

// parallel runs f once per rank, each on its own goroutine and lane, and
// waits for all of them.
func (r *clusterRun) parallel(f func(rank int, l *lane)) {
	var wg sync.WaitGroup
	for rank := 0; rank < clusterWorld; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			f(rank, r.lanes[rank])
		}(rank)
	}
	wg.Wait()
}

// readRound has every rank read clusterRoundReads seeded random samples,
// verifying each. Outside the measured window a read error is returned;
// inside it counts as a failed read.
func (r *clusterRun) readRound(round int) error {
	reads := scaled(clusterRoundReads, r.o.scale, 200)
	errs := make([]error, clusterWorld)
	r.parallel(func(rank int, l *lane) {
		fs := r.env.fss[rank]
		rng := r.rngs[rank]
		l.begin("round", int64(round))
		defer l.end()
		waits := make([]time.Duration, 0, reads)
		var nbTime time.Duration
		var units, unitBytes, failed int64
		var bad []string
		for k := 0; k < reads; k++ {
			idx := rng.Intn(r.ds.Len())
			l.begin("live.ReadSample", int64(idx))
			t0 := time.Now()
			buf, err := fs.ReadSample(idx)
			d := time.Since(t0)
			l.end()
			waits = append(waits, d)
			nbTime += d
			if err != nil {
				if !r.measuring {
					errs[rank] = fmt.Errorf("rank %d sample %d: %w", rank, idx, err)
					return
				}
				failed++
				continue
			}
			l.begin("verify", int64(idx))
			if err := r.ver.check(idx, buf); err != nil {
				bad = append(bad, fmt.Sprintf("rank %d: %v", rank, err))
			}
			units++
			unitBytes += int64(len(buf))
			l.end()
			l.begin("live.Recycle", int64(idx))
			fs.Recycle(buf)
			l.end()
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, b := range bad {
			r.out.wrong("%s", b)
		}
		if r.measuring {
			r.out.waits = append(r.out.waits, waits...)
			r.out.nbTime += nbTime
			r.out.units += units
			r.out.unitBytes += unitBytes
			r.out.attempted += int64(len(waits))
			r.out.failed += failed
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// saveRound has every rank save its next checkpoint step concurrently;
// the saves meet at the checkpoint's coordinator barrier. It returns the
// GiB per second of each successful save. Outside the measured window a
// failure is returned; inside it is counted.
func (r *clusterRun) saveRound() ([]float64, error) {
	r.step++
	step := r.step
	errs := make([]error, clusterWorld)
	durs := make([]time.Duration, clusterWorld)
	r.parallel(func(rank int, l *lane) {
		stamp(r.state[rank], step)
		l.begin("live.Checkpointer.Save", int64(step))
		t0 := time.Now()
		errs[rank] = r.env.ckpts[rank].Save(step, r.state[rank])
		durs[rank] = time.Since(t0)
		l.end()
	})
	var rates []float64
	for rank, err := range errs {
		if err != nil && !r.measuring {
			return nil, err
		}
		if !r.measuring {
			continue
		}
		r.out.attempted++
		if err != nil {
			r.out.failed++
			continue
		}
		r.out.saves++
		r.out.saveTime += durs[rank]
		rates = append(rates, float64(len(r.state[rank]))/(1<<30)/durs[rank].Seconds())
	}
	return rates, nil
}

// measure runs rounds of reads and saves until the window closes, then
// checks that every rank Loads its last saved state byte-exact.
func (r *clusterRun) measure(host *hostSampler) {
	acct := newPhaseAcct(r.env, r.tr)
	ph0, sh0 := r.env.hists()
	r.tr.startWindow()
	r.measuring = true
	mStart := time.Now()
	for !r.o.done(mStart, r.out.rounds, len(r.out.waits), host) {
		it := iteration{interval: interval{start: time.Now()}, waits: [2]int{len(r.out.waits), 0}}
		u0 := r.out.units
		r.readRound(r.out.rounds) //nolint:errcheck // inside the window read errors are counted, not returned
		d := time.Since(it.start)
		r.out.window += d
		it.rate = float64(r.out.units-u0) / d.Seconds()
		acct.mark(r.main, "reads")
		it.saveRates, _ = r.saveRound() // inside the window save errors are counted, not returned
		acct.mark(r.main, "save")
		it.end = time.Now()
		it.waits[1] = len(r.out.waits)
		r.out.iters = append(r.out.iters, it)
		r.out.rounds++
	}
	r.out.endWindow(host, mStart)
	r.out.acct = acct
	r.out.stateBytes = len(r.state[0])
	r.out.datasetBytes = r.ds.TotalBytes()
	r.out.layerEnd(r.env, ph0, sh0)

	// The control plane must end the run healthy: every replica sees
	// the same leader and no poisoned membership.
	leader := r.env.replicas[0].Status().Leader
	for i, rs := range r.env.replicas {
		if st := rs.Status(); st.Failed != "" || st.Leader != leader || st.World != clusterWorld {
			r.out.wrong("coordinator replica %d: leader %q (replica 0 sees %q), world %d, failed %q", i, st.Leader, leader, st.World, st.Failed)
		}
	}

	// A failed save leaves a rank's previous step committed, so only a
	// run without failures knows which step each rank must Load.
	for rank, ck := range r.env.ckpts {
		r.main.begin("live.Checkpointer.Load", int64(rank))
		got, step, err := ck.Load()
		r.main.end()
		r.out.attempted++
		if err != nil {
			r.out.failed++
			continue
		}
		if r.out.failed == 0 && (step != r.step || !bytes.Equal(got, r.state[rank])) {
			r.out.wrong("rank %d Load returned step %d, want step %d byte-exact", rank, step, r.step)
		}
		r.env.fss[rank].Recycle(got)
	}
}
