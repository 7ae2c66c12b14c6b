package main

import (
	"fmt"
	"runtime"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/coord"
	"dlfs/internal/live"
	dlfsmetrics "dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
)

// procs is the load shape: the process runs with GOMAXPROCS at most
// procs, each mount runs procs prefetchers, and no workload runs more
// than procs consumer loops. It is fixed rather than read from the
// machine so that the same workload drives the same concurrency on any
// host.
const procs = 2

// targetCapacity is each in-process target's device size. Stores
// materialise extents lazily, so only written bytes cost memory.
const targetCapacity = 1 << 30

// env is one stood-up deployment: targets, an optional coordinator
// replica set, and one mount (plus checkpointer) per rank.
type env struct {
	targets  []*nvmetcp.Target
	addrs    []string
	replicas []*coord.ReplicatedServer
	cons     *dlfsmetrics.Consensus
	fss      []*live.FS
	ckpts    []*live.Checkpointer
}

// startTargets stands up n in-process TCP targets on loopback.
func (e *env) startTargets(n int, hist bool) error {
	for i := 0; i < n; i++ {
		tgt := nvmetcp.NewTargetConfig(blockdev.New(targetCapacity), nvmetcp.Config{StageHistograms: hist})
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("target %d: %w", i, err)
		}
		e.targets = append(e.targets, tgt)
		e.addrs = append(e.addrs, addr)
	}
	return nil
}

// close tears the deployment down: mounts first, then the control plane,
// then the targets. Close errors are irrelevant to a torn-down run.
func (e *env) close() {
	for _, fs := range e.fss {
		fs.Close() //nolint:errcheck
	}
	for _, r := range e.replicas {
		r.Close() //nolint:errcheck
	}
	for _, t := range e.targets {
		t.Close() //nolint:errcheck
	}
}

// interval is a span of wall-clock time.
type interval struct{ start, end time.Time }

// repeatSetup runs setup at least n times, and on up to n+n/2 times
// until half of them ran without steal (see host.go), tearing the
// previous deployment (*cur) down before each. It returns when each
// set-up ran. setup stores the deployment it builds in *cur; the last
// one is left standing for the caller to measure and close. On error
// the partial deployment is closed.
func repeatSetup(host *hostSampler, n int, cur **env, setup func() error) ([]interval, error) {
	var took []interval
	clean := 0
	for len(took) < n || (clean < (n+1)/2 && len(took) < n+n/2) {
		if *cur != nil {
			(*cur).close()
			*cur = nil
			runtime.GC()
		}
		t0 := time.Now()
		err := setup()
		took = append(took, interval{t0, time.Now()})
		host.sample()
		if host.clean(t0, took[len(took)-1].end) {
			clean++
		}
		if err != nil {
			if *cur != nil {
				(*cur).close()
			}
			return took, err
		}
	}
	return took, nil
}

// counters reads every exported counter of every layer into one flat
// map, summed across ranks and targets. Differences of two reads give
// the work a phase did.
func (e *env) counters() map[string]float64 {
	c := make(map[string]float64, 64)
	for _, fs := range e.fss {
		st := fs.Stats()
		p := st.Pipeline
		for k, v := range map[string]int64{
			"pipe.prep_ns": p.PrepNanos, "pipe.post_ns": p.PostNanos, "pipe.poll_ns": p.PollNanos, "pipe.copy_ns": p.CopyNanos,
			"pipe.wire_reads": p.WireReads, "pipe.wire_segments": p.WireSegments, "pipe.wire_bytes": p.WireBytes,
			"pipe.coalesced_units": p.CoalescedUnits, "pipe.pool_hits": p.PoolHits, "pipe.pool_misses": p.PoolMisses,
			"pipe.cache_hits": p.CacheHits, "pipe.cache_misses": p.CacheMisses, "pipe.cache_evictions": p.CacheEvictions,
			"pipe.prefetch_hit_units": p.PrefetchHitUnits, "pipe.prefetch_evictions": p.PrefetchEvictions,
			"pipe.peer_hits": p.PeerHits, "pipe.peer_fallbacks": p.PeerFallbacks, "pipe.peer_served": p.PeerServed,
			"pipe.origin_reads": p.OriginReads, "pipe.origin_bytes": p.OriginBytes,
			"pipe.ckpt_write_cmds": p.CkptWriteCmds, "pipe.ckpt_write_segs": p.CkptWriteSegs,
			"pipe.ckpt_flushes": p.CkptFlushes, "pipe.ckpt_downgrades": p.CkptDowngrades,
			"res.retries": st.Resilience.Retries, "res.timeouts": st.Resilience.Timeouts,
			"res.breaker_trips": st.Resilience.BreakerTrips,
		} {
			c[k] += float64(v)
		}
	}
	for _, t := range e.targets {
		s := t.ServerStats()
		cmds, bytes := t.Served()
		reads, writes, vecReads, vecSegs := t.OpStats()
		_, _, aborted := t.ConnStats()
		st := t.Store()
		for k, v := range map[string]int64{
			"srv.qwait_ns": s.QueueWaitNanos, "srv.service_ns": s.ServiceNanos, "srv.flush_ns": s.FlushNanos,
			"srv.flushes": s.Flushes, "srv.flushed_cmds": s.FlushedCmds,
			"srv.zero_copy_bytes": s.ZeroCopyBytes, "srv.staged_bytes": s.StagedBytes, "srv.restaged": s.Restaged,
			"srv.vec_write_cmds": s.VecWriteCmds, "srv.flush_cmds": s.FlushCmds, "srv.flush_wait_ns": s.FlushWaitNanos,
			"tgt.cmds": cmds, "tgt.bytes": bytes, "tgt.reads": reads, "tgt.writes": writes,
			"tgt.vec_reads": vecReads, "tgt.vec_segments": vecSegs, "tgt.conns_aborted": aborted,
			"store.adopted_extents": st.AdoptedExtents(), "store.cow_clones": st.CowClones(),
			"store.allocated_bytes": st.AllocatedBytes(),
		} {
			c[k] += float64(v)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["rt.mallocs"] = float64(ms.Mallocs)
	c["rt.gc"] = float64(ms.NumGC)
	c["rt.pause_ns"] = float64(ms.PauseTotalNs)
	return c
}

// hists merges the client and server stage histograms (nil when the run
// keeps histograms off).
func (e *env) hists() (*dlfsmetrics.PipelineHistSnapshot, *dlfsmetrics.ServerHistSnapshot) {
	var ph *dlfsmetrics.PipelineHistSnapshot
	var sh *dlfsmetrics.ServerHistSnapshot
	for _, fs := range e.fss {
		ph = ph.Merge(fs.Stats().Pipeline.Stages)
	}
	for _, t := range e.targets {
		sh = sh.Merge(t.ServerStats().Stages)
	}
	return ph, sh
}

// phaseAcct splits counter deltas by phase of the measured loop (epoch,
// eval, save, reads): each mark charges everything since the previous
// mark to the named phase. Marks happen at epoch, round and save
// boundaries only, so that per-epoch and per-save counts are measured
// where the work happens, and each mark is also a counter sample in the
// trace. Only traced runs account phases: a nil *phaseAcct marks
// nothing, so untraced runs never pause for a counter read.
type phaseAcct struct {
	env   *env
	tr    *tracer
	last  map[string]float64
	delta map[string]map[string]float64
}

func newPhaseAcct(e *env, tr *tracer) *phaseAcct {
	if tr == nil {
		return nil
	}
	return &phaseAcct{env: e, tr: tr, last: e.counters(),
		delta: make(map[string]map[string]float64)}
}

func (a *phaseAcct) mark(l *lane, phase string) {
	if a == nil {
		return
	}
	now := a.env.counters()
	d := a.delta[phase]
	if d == nil {
		d = make(map[string]float64, len(now))
		a.delta[phase] = d
	}
	for k, v := range now {
		d[k] += v - a.last[k]
	}
	a.last = now
	a.tr.sample(l, now)
}

// get returns key's delta summed over the given phases.
func (a *phaseAcct) get(key string, phases ...string) float64 {
	var s float64
	for _, p := range phases {
		s += a.delta[p][key]
	}
	return s
}

// all returns key's delta over every phase.
func (a *phaseAcct) all(key string) float64 {
	var s float64
	for _, d := range a.delta {
		s += d[key]
	}
	return s
}

// retainedHeap forces a collection and returns the heap then in use:
// what the mounts, caches, pools and in-process targets hold at steady
// state, independent of when the collector last ran.
func retainedHeap() uint64 {
	runtime.GC()
	return heapInuse()
}
