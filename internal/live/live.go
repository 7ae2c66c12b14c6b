// Package live is the real-concurrency DLFS client: the same design as
// internal/core — hash-sharded upload, in-memory tree-based sample
// directory, chunk-level batched reads from a huge-page-style cache — but
// running on ordinary goroutines against real TCP NVMe-oF-style targets
// (internal/nvmetcp) instead of the discrete-event simulation.
//
// The read path is a multi-queue zero-copy pipeline. Each target is
// driven through a QPGroup of several reconnecting connections with
// commands striped across them; prefetchers walk the seeded epoch order
// ahead of the consumer and coalesce adjacent same-target units into
// fetch groups. Every group, whether an epoch needs it now or the
// cross-epoch prefetcher parks it for the next epoch, goes through one
// wire path, FS.fetch: a single vectored read whose payload lands
// directly in huge-page cache chunks (or, with server assembly, offload
// commands that return ready-made per-sample records). Sample emission
// and the ReadSample V-bit cache draw from a size-class buffer pool
// instead of allocating per call. Each stage (prep, post, poll, copy)
// is timed into a metrics.Pipeline.
//
// Unlike the simulation, the live path assumes the fabric misbehaves:
// every queue pair reconnects with per-command deadlines, and a
// per-target circuit breaker gates fetches. When a target is down and
// Config.AllowDegraded is set, prefetchers skip its chunks and the epoch
// keeps emitting samples from healthy nodes, finishing with a
// DegradedError instead of wedging the training loop.
package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlfs/internal/bufpool"
	"dlfs/internal/coord"
	"dlfs/internal/dataset"
	"dlfs/internal/directory"
	"dlfs/internal/hugepage"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/plan"
	"dlfs/internal/sample"
	"dlfs/internal/trace"
)

// Config tunes the live client. Zero values take defaults.
type Config struct {
	ChunkSize      int   // sample cache chunk size (default 256 KiB)
	CacheBytes     int64 // sample cache size (default 64 MiB)
	BatchSize      int   // samples per NextBatch (default 32)
	Prefetchers    int   // concurrent chunk fetchers (default 4)
	Window         int   // resident units to randomise across (default 8)
	ReadCacheBytes int64 // ReadSample V-bit cache budget (default 8 MiB; <0 disables)

	// Coordinator knobs (MountCluster only).
	CoordWaitTimeout time.Duration // collective wait bound (default 60s; <0 disables)

	// Pipeline knobs.
	QueuePairs    int   // connections per target, commands striped across them (default 2)
	PrefetchDepth int   // units of sequence lookahead for coalescing (default 2*Window)
	CoalesceBytes int64 // max bytes merged into one vectored wire read (default 1 MiB)

	// Clairvoyant cross-epoch prefetch: once an epoch's dispatcher has
	// handed out all fetch groups, a background round fetches the *next*
	// epoch's predicted unit slice (the seeded order is deterministic)
	// into a bounded lookahead store, so the next epoch opens warm.
	CrossEpochPrefetch  bool                   // enable the lookahead round
	PrefetchBudgetBytes int64                  // lookahead store budget (default 16 MiB; <0 disables)
	NextEpochSeed       func(seed int64) int64 // predicts the next epoch's seed (default seed+1)

	// Near-data sample assembly (nvmetcp opReadSamples): fetch groups
	// are posted as offload commands whose responses carry exactly the
	// samples' post-transform bytes — the target assembles each record
	// from its extents, so chunk padding and edge-sample overfetch never
	// cross the NIC and offloaded units skip the client copy stage
	// entirely. A target that does not speak the opcode (rolling
	// upgrade) is downgraded per-target to the vectored chunk path.
	ServerAssembly        bool // offload sample extraction to the targets
	AssemblyTransform     int  // nvmetcp transform ID applied target-side (default 0 = none; <0 normalized to -1 = none)
	AssemblySamplesPerCmd int  // sample descriptors per offload command (default 512; <0 normalized to -1 = protocol max)

	// Cooperative peer cache (cluster mounts only): each rank hosts a
	// peercache service over its read cache; ReadSample misses ask the
	// owning peer before the origin target. Must be set identically on
	// every rank (the mount runs one extra allgather when enabled).
	PeerCache        bool          // enable the peer sample service + peer-first misses
	PeerCacheListen  string        // peer service listen address (default "127.0.0.1:0")
	PeerFetchTimeout time.Duration // peer dial + round-trip bound (default 500ms; <0 disables)

	// Observability knobs.
	StageHistograms bool                // record per-stage latency histograms (prep/post/poll/copy, ReadSample, mount phases)
	Trace           *trace.WallRecorder // wall-clock pipeline trace: post/complete/emit/free events (nil disables)

	// Multi-tenancy: the tenant id stamped on every command this mount
	// submits. Zero is the legacy/default tenant, so single-tenant
	// deployments need no configuration; ids above nvmetcp.MaxTenantID
	// are rejected at connect. A throttled command (tenant over its
	// target-side quota) is retried after the target's hint — it is
	// backpressure, not a failure, and never trips the circuit breaker.
	Tenant int // tenant id on the wire (default 0 = legacy tenant; negative normalized to 0)

	// Resilience knobs.
	DialTimeout      time.Duration // target dial + handshake bound (default 5s)
	RequestTimeout   time.Duration // per-command deadline (default 10s; <0 disables)
	MaxRetries       int           // transport retries per operation (default 4)
	RetryBaseDelay   time.Duration // backoff base (default 5ms)
	RetryMaxDelay    time.Duration // backoff cap (default 500ms)
	BreakerThreshold int           // consecutive failures to open a breaker (default 3)
	BreakerCooldown  time.Duration // open → half-open probe delay (default 500ms)
	AllowDegraded    bool          // skip down targets instead of failing the epoch
}

// withDefaults resolves zero values to defaults. A few knobs
// distinguish "unset" from "off": RequestTimeout, ReadCacheBytes,
// PrefetchBudgetBytes and PeerFetchTimeout (and the cluster-only
// CoordWaitTimeout) treat zero as "take the default" and any negative
// value as "disabled". Negative values are normalized to the canonical
// sentinel -1 so downstream comparisons (and tests) see one disabled
// representation regardless of which negative the caller passed. Every
// other knob treats all non-positive values as unset.
func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256 << 10
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Prefetchers <= 0 {
		c.Prefetchers = 4
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.ReadCacheBytes == 0 {
		c.ReadCacheBytes = 8 << 20
	} else if c.ReadCacheBytes < 0 {
		c.ReadCacheBytes = -1
	}
	if c.CoordWaitTimeout == 0 {
		c.CoordWaitTimeout = 60 * time.Second
	} else if c.CoordWaitTimeout < 0 {
		c.CoordWaitTimeout = -1
	}
	if c.QueuePairs <= 0 {
		c.QueuePairs = 2
	}
	if c.PrefetchDepth <= 0 {
		c.PrefetchDepth = 2 * c.Window
	}
	if c.CoalesceBytes <= 0 {
		c.CoalesceBytes = 1 << 20
	}
	if c.PrefetchBudgetBytes == 0 {
		c.PrefetchBudgetBytes = 16 << 20
	} else if c.PrefetchBudgetBytes < 0 {
		c.PrefetchBudgetBytes = -1
	}
	if c.AssemblyTransform < 0 {
		c.AssemblyTransform = -1
	}
	if c.AssemblySamplesPerCmd == 0 {
		c.AssemblySamplesPerCmd = 512
	} else if c.AssemblySamplesPerCmd < 0 {
		c.AssemblySamplesPerCmd = -1
	}
	if c.PeerCacheListen == "" {
		c.PeerCacheListen = "127.0.0.1:0"
	}
	if c.PeerFetchTimeout == 0 {
		c.PeerFetchTimeout = 500 * time.Millisecond
	} else if c.PeerFetchTimeout < 0 {
		c.PeerFetchTimeout = -1
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	} else if c.RequestTimeout < 0 {
		c.RequestTimeout = -1
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 5 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.Tenant < 0 {
		c.Tenant = 0
	}
	return c
}

// FS is a live DLFS client bound to a set of TCP targets.
type FS struct {
	cfg      Config
	ds       *dataset.Dataset
	dir      *directory.Directory
	targets  []*target
	counters *metrics.Resilience
	pipe     *metrics.Pipeline
	pool     *bufpool.Pool
	scache   *sampleCache // nil when ReadCacheBytes < 0
	arena    *hugepage.Blocking
	placed   []plan.Placed
	nodeOf   []uint16
	keyIdx   map[uint64]int
	closed   atomic.Bool // atomic: the peer-cache server races remote requests against Close

	prefetchState // cross-epoch lookahead (Config.CrossEpochPrefetch)

	// planOnce builds the deterministic unit plan on first use; every
	// epoch, prefetch round and EpochUnits call reads or clones it.
	planOnce  sync.Once
	planUnits []unit
	planErr   error

	// Cluster state (zero/nil on a single-node Mount).
	rank   int
	world  int
	coord  coord.Session
	mstats *metrics.Mount
	peers  *peerSet // cooperative peer cache (Config.PeerCache)
}

// Errors.
var (
	ErrNotFound = errors.New("live: no such sample")
	ErrClosed   = errors.New("live: file system closed")
)

// Mount connects to the targets, uploads each target's hash-shard of the
// dataset, and builds the replicated directory — dlfs_mount over real
// sockets. Each target is dialled Config.QueuePairs times. The caller
// owns closing the returned FS.
func Mount(addrs []string, ds *dataset.Dataset, cfg Config) (*FS, error) {
	cfg = cfg.withDefaults()
	counters := &metrics.Resilience{}
	targets, err := dialTargets(addrs, cfg, counters)
	if err != nil {
		return nil, err
	}

	n := len(addrs)
	parts := make([]*directory.Partition, n)
	for i := range parts {
		parts[i] = directory.NewPartition(uint16(i))
	}
	offs := make([]int64, n)
	placed := make([]plan.Placed, ds.Len())
	nodeOf := make([]uint16, ds.Len())
	keyIdx := make(map[uint64]int, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		key := ds.Samples[i].Key()
		if _, dup := keyIdx[key]; dup {
			return nil, fmt.Errorf("live: key collision on sample %d", i)
		}
		keyIdx[key] = i
		nid := directory.HomeNode(key, n)
		content := ds.Content(i)
		if _, err := targets[nid].qp.WriteAt(content, offs[nid]); err != nil {
			return nil, fmt.Errorf("live: uploading sample %d: %w", i, err)
		}
		e, err := sample.NewEntry(nid, key, offs[nid], int32(len(content)))
		if err != nil {
			return nil, err
		}
		if err := parts[nid].Add(e); err != nil {
			return nil, err
		}
		placed[i] = plan.Placed{Sample: i, Offset: offs[nid], Len: int32(len(content))}
		nodeOf[i] = nid
		offs[nid] += int64(len(content))
	}
	dir, err := directory.New(parts)
	if err != nil {
		return nil, err
	}
	arena, err := hugepage.NewArena(cfg.CacheBytes, cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		cfg:      cfg,
		ds:       ds,
		dir:      dir,
		targets:  targets,
		counters: counters,
		pipe:     &metrics.Pipeline{},
		arena:    hugepage.NewBlocking(arena),
		placed:   placed,
		nodeOf:   nodeOf,
		keyIdx:   keyIdx,
		world:    1,
	}
	fs.finishSetup()
	return fs, nil
}

// dialTargets opens a queue-pair group per target address, closing any
// already-open groups on failure.
func dialTargets(addrs []string, cfg Config, counters *metrics.Resilience) ([]*target, error) {
	if len(addrs) == 0 {
		return nil, errors.New("live: no targets")
	}
	if cfg.ServerAssembly {
		if x := cfg.AssemblyTransform; x > 0 {
			if x > 255 || !nvmetcp.TransformValid(byte(x)) {
				return nil, fmt.Errorf("live: unknown assembly transform %d", x)
			}
			if nvmetcp.TransformOutLen(byte(x), 1) < 0 {
				return nil, fmt.Errorf("live: assembly transform %s has data-dependent output size; the epoch pipeline needs sized destinations",
					nvmetcp.TransformName(byte(x)))
			}
		}
	}
	opt := nvmetcp.Options{DialTimeout: cfg.DialTimeout, RequestTimeout: cfg.RequestTimeout, Tenant: cfg.Tenant}
	targets := make([]*target, len(addrs))
	for i, a := range addrs {
		qp, err := nvmetcp.NewQPGroup(a, cfg.QueuePairs, opt, nvmetcp.RetryPolicy{
			MaxRetries: cfg.MaxRetries,
			BaseDelay:  cfg.RetryBaseDelay,
			MaxDelay:   cfg.RetryMaxDelay,
			Seed:       int64(i) + 1,
		}, counters)
		if err != nil {
			for _, prev := range targets[:i] {
				prev.qp.Close() //nolint:errcheck
			}
			return nil, fmt.Errorf("live: target %s: %w", a, err)
		}
		targets[i] = &target{
			addr: a,
			qp:   qp,
			brk:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, counters),
		}
	}
	return targets, nil
}

// finishSetup attaches the stage histograms, buffer pool and read cache
// configured by cfg.
func (fs *FS) finishSetup() {
	if fs.cfg.StageHistograms {
		fs.pipe.Hist = &metrics.PipelineHist{}
	}
	fs.pool = bufpool.New()
	if fs.cfg.ReadCacheBytes > 0 {
		fs.scache = newSampleCache(fs.cfg.ReadCacheBytes, fs.pipe, fs.alloc, fs.Recycle, fs.setV)
	}
	if fs.cfg.CrossEpochPrefetch && fs.cfg.PrefetchBudgetBytes > 0 {
		fs.prefetch = newPrefetchStore(fs.cfg.PrefetchBudgetBytes, fs.pipe, fs.Recycle)
	}
	fs.prefetchStop = make(chan struct{})
}

// Directory exposes the sample directory.
func (fs *FS) Directory() *directory.Directory { return fs.dir }

// Pipeline exposes the per-stage pipeline counters.
func (fs *FS) Pipeline() *metrics.Pipeline { return fs.pipe }

// alloc takes a buffer of length n from the pool.
func (fs *FS) alloc(n int) []byte { return fs.pool.Get(n) }

// Recycle returns a buffer previously handed out by ReadSample,
// ReadName, or NextBatch to the pool. Optional: callers that drop
// buffers on the floor just pay the allocator again on the next read.
func (fs *FS) Recycle(b []byte) { fs.pool.Put(b) }

// RecycleItems recycles every item's payload and nils the slices so a
// training loop can return a whole mini-batch in one call.
func (fs *FS) RecycleItems(items []Item) {
	for i := range items {
		fs.Recycle(items[i].Data)
		items[i].Data = nil
	}
}

// ReadSample reads one sample synchronously by dataset index (the
// dlfs_open/read/close path), serving repeats from the sharded V-bit
// read cache. The returned buffer is caller-owned; hand it back via
// Recycle to keep the hot path allocation-free. When the sample's
// target breaker is open the read fails fast with an error matching
// ErrDegraded.
func (fs *FS) ReadSample(idx int) ([]byte, error) {
	if fs.closed.Load() {
		return nil, ErrClosed
	}
	if idx < 0 || idx >= fs.ds.Len() {
		return nil, fmt.Errorf("%w: index %d", ErrNotFound, idx)
	}
	// Clock reads are gated on the histogram being enabled so the
	// disabled hot path stays exactly as cheap as before.
	var start time.Time
	hist := fs.pipe.Hist
	if hist != nil {
		start = time.Now()
	}
	if fs.scache != nil {
		if hit := fs.scache.get(idx); hit != nil {
			if hist != nil {
				hist.Read.Observe(time.Since(start))
			}
			return hit, nil
		}
	}
	pl := fs.placed[idx]
	// Cooperative peer cache: the sample's owner is the rank whose
	// target stores it, so a non-owner asks that peer before touching
	// the origin wire; any peer failure falls through to origin.
	if fs.peers != nil {
		if owner := int(fs.nodeOf[idx]); owner != fs.rank {
			if buf := fs.peerFetch(owner, idx, int(pl.Len)); buf != nil {
				if fs.scache != nil {
					fs.scache.put(idx, buf)
				}
				if hist != nil {
					hist.Read.Observe(time.Since(start))
				}
				return buf, nil
			}
		}
	}
	buf := fs.alloc(int(pl.Len))
	if err := fs.targets[fs.nodeOf[idx]].read(buf, pl.Offset); err != nil {
		fs.Recycle(buf)
		return nil, err
	}
	fs.pipe.OriginReads.Add(1)
	fs.pipe.OriginBytes.Add(int64(pl.Len))
	if fs.scache != nil {
		fs.scache.put(idx, buf)
	}
	if hist != nil {
		hist.Read.Observe(time.Since(start))
	}
	return buf, nil
}

// CacheHits reports ReadSample requests served from the read cache.
func (fs *FS) CacheHits() int64 { return fs.pipe.CacheHits.Load() }

func (fs *FS) setV(idx int, v bool) {
	_, ref, _, ok := fs.dir.Lookup(fs.ds.Samples[idx].Key())
	if ok {
		fs.dir.SetV(ref, v)
	}
}

// ReadName resolves a sample name through the directory and reads it.
func (fs *FS) ReadName(name string, attrs ...string) ([]byte, error) {
	e, _, _, ok := fs.dir.LookupName(name, attrs...)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	idx, ok := fs.keyIdx[e.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return fs.ReadSample(idx)
}

// Close tears down the target connections, stops the cross-epoch
// prefetcher and peer-cache service, and, on a cluster mount, departs
// the coordinator.
func (fs *FS) Close() error {
	if fs.closed.Swap(true) {
		return nil
	}
	if fs.prefetchStop != nil {
		close(fs.prefetchStop) // abort any in-flight lookahead round
	}
	var err error
	for _, tg := range fs.targets {
		if cerr := tg.qp.Close(); err == nil {
			err = cerr
		}
	}
	// Closed queue pairs fail any blocked prefetch read, so this wait is
	// bounded by one command completion.
	fs.prefetchWG.Wait()
	if fs.prefetch != nil {
		fs.prefetch.drain()
	}
	if fs.peers != nil {
		fs.peers.close()
	}
	if fs.coord != nil {
		if cerr := fs.coord.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Item is one delivered sample.
type Item struct {
	Index int
	Data  []byte
}

// unit mirrors the core package's fetch granule. A fetched unit holds
// its payload in exactly one of two forms: chunks (a chunked wire read
// landed the raw byte range in the cache arena, and NextBatch copies
// each sample out) or records.
type unit struct {
	seq     int // position in this epoch's (sliced) fetch order, for tracing
	node    uint16
	offset  int64
	length  int32
	samples []plan.Placed // shared with the FS unit plan; read-only
	chunks  []*hugepage.Chunk
	next    int

	// records holds one ready-to-emit pool buffer per sample (parallel
	// to samples) when the unit was server-assembled or served from the
	// lookahead store, which holds nothing but records. There are no
	// chunks to copy from: NextBatch hands the buffers out directly.
	// Entries are nil'ed as they are emitted; ownership of the
	// remainder stays with the unit.
	records [][]byte
}

// chunkCount returns how many cache chunks the unit spans.
func (u *unit) chunkCount(cs int) int { return (int(u.length) + cs - 1) / cs }

// fetchGroup is a set of same-target units coalesced into one wire read.
type fetchGroup struct {
	node  uint16
	units []*unit
}

// Epoch is a chunk-batched pass over the dataset, driven by background
// prefetchers.
type Epoch struct {
	fs    *FS
	rng   *rand.Rand
	ready chan *unit
	errCh chan error

	abort     chan struct{}
	abortOnce sync.Once

	skipped  atomic.Int64 // samples skipped in degraded mode
	degMu    sync.Mutex
	degNodes map[int]struct{}

	resident    []*unit
	total       int
	emitted     int
	failed      error
	readyClosed bool
	finished    bool
}

// Sequence starts an epoch with the given seed (dlfs_sequence +
// chunk-level batching). The shuffled unit order is known up front, so
// the dispatcher looks PrefetchDepth units ahead and merges same-target
// neighbours into vectored fetch groups before handing them to the
// Prefetchers workers — sequence-driven prefetch with request
// coalescing. Background fetchers start immediately.
func (fs *FS) Sequence(seed int64) (*Epoch, error) {
	return fs.sequence(seed, 0, 1)
}

// sequence builds the seeded global unit order and starts the fetch
// pipeline over the rank-th of world disjoint slices (0/1 = the whole
// epoch). The unit plan and the shuffle derive only from the seed and
// the deterministic placement, so every rank of a cluster job computes
// the identical global order and unit i can be assigned to rank
// i % world with no coordination.
func (fs *FS) sequence(seed int64, rank, world int) (*Epoch, error) {
	return fs.sequenceRange(seed, rank, world, 0, -1)
}

// epochUnitSlice derives rank's 1/world slice of units [lo, hi) (hi < 0
// means the end) of the seeded global unit order, as a fresh copy of
// the unit plan ready to be filled. Epochs and the cross-epoch
// prefetcher both take their units from here, so a prediction can never
// drift from the epoch it predicts.
func (fs *FS) epochUnitSlice(seed int64, rank, world, lo, hi int) ([]*unit, error) {
	tmpl, err := fs.unitPlan()
	if err != nil {
		return nil, err
	}
	backing := make([]unit, len(tmpl))
	copy(backing, tmpl)
	units := make([]*unit, len(backing))
	for i := range backing {
		units[i] = &backing[i]
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	if hi < 0 || hi > len(units) {
		hi = len(units)
	}
	if lo > hi {
		lo = hi
	}
	units = units[lo:hi]
	if world > 1 {
		slice := units[:0:0]
		for i := rank; i < len(units); i += world {
			slice = append(slice, units[i])
		}
		units = slice
	}
	return units, nil
}

// unitPlan returns the mount's unit plan, built once: it is a pure
// function of the placement, which never changes after mount. Callers
// must not modify the returned units.
func (fs *FS) unitPlan() ([]unit, error) {
	if fs.closed.Load() {
		return nil, ErrClosed
	}
	fs.planOnce.Do(func() { fs.planUnits, fs.planErr = fs.computeUnitPlan() })
	return fs.planUnits, fs.planErr
}

// computeUnitPlan derives the unit plan from the placement: the chunk
// units and edge samples of plan.BuildChunkPlan, sorted by (node,
// offset).
func (fs *FS) computeUnitPlan() ([]unit, error) {
	n := len(fs.targets)
	layout := &plan.Layout{NodeSamples: make([][]plan.Placed, n), ChunkSize: int64(fs.cfg.ChunkSize)}
	for idx, pl := range fs.placed {
		nid := fs.nodeOf[idx]
		layout.NodeSamples[nid] = append(layout.NodeSamples[nid], pl)
	}
	for nid := range layout.NodeSamples {
		s := layout.NodeSamples[nid]
		sort.Slice(s, func(i, j int) bool { return s[i].Offset < s[j].Offset })
	}
	cp, err := plan.BuildChunkPlan(layout)
	if err != nil {
		return nil, err
	}
	units := make([]unit, 0, len(cp.Chunks)+len(cp.Edges))
	for _, c := range cp.Chunks {
		units = append(units, unit{node: c.Node, offset: c.Offset, length: c.Length, samples: c.Samples})
	}
	for _, e := range cp.Edges {
		units = append(units, unit{node: e.Node, offset: e.Placed.Offset, length: e.Placed.Len, samples: []plan.Placed{e.Placed}})
	}
	// Deterministic global order: sort by (node, offset) before the
	// seeded shuffle so the slice a rank consumes depends only on the
	// seed and the placement, never on plan-construction order.
	sort.Slice(units, func(i, j int) bool {
		if units[i].node != units[j].node {
			return units[i].node < units[j].node
		}
		if units[i].offset != units[j].offset {
			return units[i].offset < units[j].offset
		}
		// A chunk-aligned edge sample larger than the chunk size can
		// share (node, offset) with a chunk; length breaks the tie.
		return units[i].length < units[j].length
	})
	return units, nil
}

// sequenceRange builds the seeded global unit order, restricts it to
// units [lo, hi) (hi < 0 means the end), and starts the fetch pipeline
// over the rank-th of world slices of that range. Assignment within the
// range is cut-relative — unit i goes to rank (i-lo) % world — so after
// an elastic membership change the survivors can repartition exactly
// the unconsumed suffix among themselves (DESIGN.md §13).
func (fs *FS) sequenceRange(seed int64, rank, world, lo, hi int) (*Epoch, error) {
	// Cross-epoch prefetch only predicts full-range epochs: a mid-epoch
	// cut (reshard) changes the assignment rule, so lookahead for it
	// would be guessing.
	fullRange := lo == 0 && hi < 0
	units, err := fs.epochUnitSlice(seed, rank, world, lo, hi)
	if err != nil {
		return nil, err
	}
	total := 0
	for i, u := range units {
		u.seq = i
		total += len(u.samples)
	}

	ep := &Epoch{
		fs:       fs,
		rng:      rand.New(rand.NewSource(seed ^ 0x9E3779B9)),
		ready:    make(chan *unit, fs.cfg.Window),
		errCh:    make(chan error, 1),
		abort:    make(chan struct{}),
		degNodes: make(map[int]struct{}),
		total:    total,
	}
	// Fetch pipeline: the dispatcher below coalesces the shuffled unit
	// stream into groups drained by Prefetchers workers.
	work := make(chan *fetchGroup)
	var wg sync.WaitGroup
	for w := 0; w < fs.cfg.Prefetchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				err := ep.fetchGroup(g)
				if err == nil {
					for gi, u := range g.units {
						select {
						case ep.ready <- u:
						case <-ep.abort:
							for _, v := range g.units[gi:] {
								fs.freeUnit(v)
							}
							return
						}
					}
					continue
				}
				if fs.cfg.AllowDegraded && degradable(err) {
					for _, u := range g.units {
						ep.noteSkip(u)
					}
					continue
				}
				select {
				case ep.errCh <- err:
				default:
				}
				ep.abortOnce.Do(func() { close(ep.abort) })
				return
			}
		}()
	}
	go func() {
		ep.dispatch(units, work)
		close(work)
		// All of this epoch's groups are handed out: the queue pairs now
		// mostly idle between completions, which is the window the
		// clairvoyant prefetcher fills with next-epoch reads.
		if fs.prefetch != nil && fullRange {
			fs.maybePrefetch(fs.nextSeed(seed), rank, world)
		}
		wg.Wait()
		close(ep.ready)
	}()
	return ep, nil
}

// dispatch walks the shuffled unit order, merging each unit with
// not-yet-taken same-target units within the PrefetchDepth lookahead
// window, bounded by CoalesceBytes and half the arena (so blocking
// group allocations always complete). A unit too large for the caps
// still ships as its own group.
func (ep *Epoch) dispatch(units []*unit, work chan<- *fetchGroup) {
	fs := ep.fs
	cs := fs.cfg.ChunkSize
	maxChunks := fs.arena.Arena().NumChunks() / 2
	if maxChunks < 1 {
		maxChunks = 1
	}
	taken := make([]bool, len(units))
	for i := 0; i < len(units); i++ {
		if taken[i] {
			continue
		}
		taken[i] = true
		g := &fetchGroup{node: units[i].node, units: []*unit{units[i]}}
		bytes := int64(units[i].length)
		chunks := units[i].chunkCount(cs)
		for j := i + 1; j < len(units) && j <= i+fs.cfg.PrefetchDepth; j++ {
			if taken[j] || units[j].node != g.node {
				continue
			}
			cb := int64(units[j].length)
			cc := units[j].chunkCount(cs)
			if bytes+cb > fs.cfg.CoalesceBytes || chunks+cc > maxChunks {
				continue
			}
			taken[j] = true
			g.units = append(g.units, units[j])
			bytes += cb
			chunks += cc
		}
		if len(g.units) > 1 {
			fs.pipe.CoalescedUnits.Add(int64(len(g.units) - 1))
		}
		select {
		case work <- g:
		case <-ep.abort:
		}
	}
}

// noteSkip records a unit dropped in degraded mode.
func (ep *Epoch) noteSkip(u *unit) {
	ep.skipped.Add(int64(len(u.samples)))
	ep.fs.counters.DegradedSamples.Add(int64(len(u.samples)))
	ep.degMu.Lock()
	ep.degNodes[int(u.node)] = struct{}{}
	ep.degMu.Unlock()
}

// degradedNodes returns the sorted set of nodes skipped so far.
func (ep *Epoch) degradedNodes() []int {
	ep.degMu.Lock()
	nodes := make([]int, 0, len(ep.degNodes))
	for n := range ep.degNodes {
		nodes = append(nodes, n)
	}
	ep.degMu.Unlock()
	sort.Ints(nodes)
	return nodes
}

// fetchGroup brings a coalesced group in: lookahead store hits take
// their stored records (no wire, no copy), the remainder goes through
// fetch. A wire failure releases every unit's payload — including
// store-served records — before returning so degraded skips never leak
// arena or pool memory.
func (ep *Epoch) fetchGroup(g *fetchGroup) error {
	fs := ep.fs
	misses := g.units
	if fs.prefetch != nil {
		misses = ep.serveFromStore(g)
		if len(misses) == 0 {
			return nil
		}
	}
	if _, err := fs.fetch(fs.targets[g.node], misses, toEpoch); err != nil {
		for _, u := range g.units {
			fs.freeUnit(u)
		}
		return err
	}
	return nil
}

// freeUnit releases whatever payload a unit holds — arena cache chunks
// or per-sample records — after a failure or abort.
func (fs *FS) freeUnit(u *unit) {
	if u.chunks != nil {
		fs.arena.Free(u.chunks)
		u.chunks = nil
	}
	for _, b := range u.records {
		fs.Recycle(b)
	}
	u.records = nil
}

// sink says who consumes one fetch: the epoch pipeline or the
// lookahead store. It decides only where a chunked read lands and what
// is booked on success; everything else in fetch is shared.
type sink uint8

const (
	// toEpoch lands chunked reads in arena cache chunks and books the
	// fetch as epoch work: prep/post/poll stage time, Wire* counters and
	// trace post/complete events.
	toEpoch sink = iota
	// toStore lands each unit of a chunked read in one unit-sized pool
	// buffer, splits it into per-sample records and parks every unit in
	// the lookahead store. Prefetch rounds book no wire reads, stage
	// time or trace events: they are not epoch work.
	toStore
)

// fetch is the one wire path of the read pipeline: it brings units, all
// stored on tg, in with one round of commands and hands them to the
// sink. Wire mode is chosen per target: with ServerAssembly on and the
// target not latched as legacy, the units go out as opReadSamples
// offload commands whose responses fill one pool buffer per record —
// the target assembles (and transforms) each sample from its extents,
// so chunk padding and edge overfetch never cross the NIC and the
// records need no client copy. Otherwise the group is one vectored
// opReadVec whose payload lands directly in the sink's buffers.
//
// fetch owns the target's circuit breaker, the capability latch (a
// target that rejects opReadSamples is downgraded once and the same
// units are re-fetched chunked, without a breaker penalty or a second
// Allow), crc32c verification of transformed records, and releasing
// every buffer on failure. On the store sink it returns the record
// bytes parked.
func (fs *FS) fetch(tg *target, units []*unit, to sink) (int64, error) {
	if !tg.brk.Allow() {
		return 0, fmt.Errorf("%w: %s circuit open", ErrDegraded, tg.addr)
	}
	assemble := fs.cfg.ServerAssembly && !tg.noAssembly.Load()
	xform := fs.assemblyTransform()
	for {
		prep := time.Now()
		vsegs, ssegs, wireBytes := fs.prepSegs(units, assemble, xform, to)
		if to == toEpoch {
			fs.pipe.ObservePrep(time.Since(prep))
			for _, u := range units {
				fs.cfg.Trace.Record(trace.KindPost, u.seq, u.node, int(u.length))
			}
		}

		var one [1]*nvmetcp.RePending // the chunked read's one command, without a heap slice
		pendings := one[:0]
		var ferr error
		post := time.Now()
		if assemble {
			pendings, ferr = fs.postSamples(tg, xform, ssegs)
		} else if pd, err := tg.qp.ReadVecAsync(vsegs); err != nil {
			ferr = err
		} else {
			pendings = append(pendings, pd)
		}
		poll := time.Now()
		for _, pd := range pendings {
			if _, err := pd.Wait(); err != nil && ferr == nil {
				ferr = err
			}
		}
		if to == toEpoch {
			fs.pipe.ObservePost(poll.Sub(post))
			fs.pipe.ObservePoll(time.Since(poll))
		}
		if ferr == nil && assemble {
			ferr = verifyAssembled(xform, units)
		}

		if ferr != nil {
			for _, u := range units {
				fs.freeUnit(u)
			}
			var ue *nvmetcp.UnsupportedOpError
			if assemble && errors.As(ferr, &ue) {
				// Old-opcode target (rolling upgrade): a capability
				// miss, not a health failure. Latch it, count the
				// downgrade and re-fetch the units chunked.
				tg.noAssembly.Store(true)
				fs.pipe.OffloadDowngrades.Add(1)
				assemble = false
				continue
			}
			tg.noteFailure(ferr)
			return 0, ferr
		}
		tg.brk.Success()

		if assemble {
			fs.pipe.OffloadCmds.Add(int64(len(pendings)))
			fs.pipe.OffloadSamples.Add(int64(len(ssegs)))
			var unitBytes int64
			for _, u := range units {
				unitBytes += int64(u.length)
			}
			if saved := unitBytes - wireBytes; saved > 0 {
				fs.pipe.OffloadSavedBytes.Add(saved)
			}
		}
		if to == toStore {
			var parked int64
			for _, u := range units {
				if !assemble {
					fs.splitRecords(u)
				}
				parked += fs.park(u)
			}
			return parked, nil
		}
		fs.pipe.WireReads.Add(int64(len(pendings)))
		fs.pipe.WireSegments.Add(int64(len(vsegs) + len(ssegs)))
		fs.pipe.WireBytes.Add(wireBytes)
		for _, u := range units {
			fs.cfg.Trace.Record(trace.KindComplete, u.seq, u.node, int(u.length))
		}
		return 0, nil
	}
}

// prepSegs allocates every unit's destinations and returns the scatter
// list for one wire mode and sink, plus the payload bytes the responses
// will carry. Assembly gets one pool buffer per record, sized for the
// transform's output, for either sink. A chunked read gets one segment
// per arena chunk for the epoch — the payload lands in huge-page memory
// with no intermediate copy — or, for the store, one unit-sized pool
// buffer per unit, held in records[0] until splitRecords replaces it
// with the samples. Only payload bytes count: for offload commands
// exactly the post-transform records, never chunk padding; the
// per-record length block is framing, like capsule headers, and is
// excluded just as opReadVec excludes its header.
func (fs *FS) prepSegs(units []*unit, assemble bool, xform byte, to sink) ([]nvmetcp.Seg, []nvmetcp.SampleSeg, int64) {
	cs := fs.cfg.ChunkSize
	var wireBytes int64
	if assemble {
		n := 0
		for _, u := range units {
			n += len(u.samples)
		}
		ssegs := make([]nvmetcp.SampleSeg, 0, n)
		for _, u := range units {
			u.records = make([][]byte, len(u.samples))
			for si, pl := range u.samples {
				buf := fs.alloc(nvmetcp.TransformOutLen(xform, int(pl.Len)))
				u.records[si] = buf
				ssegs = append(ssegs, nvmetcp.SampleSeg{Dst: buf, Off: pl.Offset, N: int(pl.Len)})
				wireBytes += int64(len(buf))
			}
		}
		return nil, ssegs, wireBytes
	}
	if to == toStore {
		vsegs := make([]nvmetcp.Seg, len(units))
		for i, u := range units {
			u.records = make([][]byte, len(u.samples))
			u.records[0] = fs.alloc(int(u.length))
			vsegs[i] = nvmetcp.Seg{Dst: u.records[0], Off: u.offset}
			wireBytes += int64(u.length)
		}
		return vsegs, nil, wireBytes
	}
	n := 0
	for _, u := range units {
		n += u.chunkCount(cs)
	}
	all := fs.arena.AllocN(n)
	vsegs := make([]nvmetcp.Seg, 0, n)
	k := 0
	for _, u := range units {
		nc := u.chunkCount(cs)
		u.chunks = all[k : k+nc]
		k += nc
		for ci := 0; ci < nc; ci++ {
			segLen := cs
			if rem := int(u.length) - ci*cs; rem < segLen {
				segLen = rem
			}
			vsegs = append(vsegs, nvmetcp.Seg{Dst: u.chunks[ci].Bytes()[:segLen], Off: u.offset + int64(ci*cs)})
		}
		wireBytes += int64(u.length)
	}
	return vsegs, nil, wireBytes
}

// assemblyTransform resolves the configured offload transform; the
// canonical negatives (-1) and zero both mean TransformNone.
func (fs *FS) assemblyTransform() byte {
	if fs.cfg.AssemblyTransform <= 0 {
		return nvmetcp.TransformNone
	}
	return byte(fs.cfg.AssemblyTransform)
}

// postSamples submits segs as one or more opReadSamples commands under
// the configured per-command descriptor cap, returning every in-flight
// pending. On a submission error the already-submitted pendings are
// still returned — the caller must Wait them before touching the
// destination buffers.
func (fs *FS) postSamples(tg *target, xform byte, segs []nvmetcp.SampleSeg) ([]*nvmetcp.RePending, error) {
	per := fs.cfg.AssemblySamplesPerCmd
	if per <= 0 || per > nvmetcp.MaxSampleDescs {
		per = nvmetcp.MaxSampleDescs
	}
	pendings := make([]*nvmetcp.RePending, 0, (len(segs)+per-1)/per)
	for lo := 0; lo < len(segs); lo += per {
		hi := lo + per
		if hi > len(segs) {
			hi = len(segs)
		}
		pd, err := tg.qp.ReadSamplesAsync(xform, segs[lo:hi], nil)
		if err != nil {
			return pendings, err
		}
		pendings = append(pendings, pd)
	}
	return pendings, nil
}

// verifyAssembled checks and strips each record's crc32c trailer in
// place when the mount runs the crc transform. The stripped body
// aliases the pooled buffer, so recycling stays exact.
func verifyAssembled(xform byte, units []*unit) error {
	if xform != nvmetcp.TransformCRC32C {
		return nil
	}
	for _, u := range units {
		for si, b := range u.records {
			body, ok := nvmetcp.VerifyCRC32C(b)
			if !ok {
				return fmt.Errorf("live: crc32c mismatch on sample %d", u.samples[si].Sample)
			}
			u.records[si] = body
		}
	}
	return nil
}

// Total reports the number of samples the epoch plans to deliver.
func (ep *Epoch) Total() int { return ep.total }

// Skipped reports the samples skipped so far in degraded mode.
func (ep *Epoch) Skipped() int { return int(ep.skipped.Load()) }

// NextBatch returns the next mini-batch: random selection across the
// resident window of fetched chunks, sequential within each chunk — the
// copy-thread emission discipline of §III-D2. Item buffers come from
// the FS buffer pool; hand them back with RecycleItems to keep epochs
// allocation-free. ok is false when the epoch is exhausted. A hard I/O
// failure surfaces as an error and ends the epoch; an epoch that
// skipped samples in degraded mode keeps emitting from healthy targets
// and reports a *DegradedError (matching ErrDegraded) on its final
// call.
func (ep *Epoch) NextBatch() ([]Item, bool, error) {
	if ep.failed != nil {
		return nil, false, ep.failed
	}
	if ep.finished {
		return nil, false, nil
	}
	items := make([]Item, 0, ep.fs.cfg.BatchSize)
	for len(items) < ep.fs.cfg.BatchSize {
		// Refill the resident window without blocking.
		for !ep.readyClosed && len(ep.resident) < ep.fs.cfg.Window {
			stop := false
			select {
			case err := <-ep.errCh:
				ep.failed = err
				return items, false, err
			case u, ok := <-ep.ready:
				if !ok {
					ep.readyClosed = true
				} else {
					ep.resident = append(ep.resident, u)
				}
			default:
				stop = true
			}
			if stop {
				break
			}
		}
		if len(ep.resident) == 0 {
			if ep.readyClosed {
				break // epoch exhausted
			}
			// Nothing resident: block for the next fetched unit.
			select {
			case err := <-ep.errCh:
				ep.failed = err
				return items, false, err
			case u, ok := <-ep.ready:
				if !ok {
					ep.readyClosed = true
					continue
				}
				ep.resident = append(ep.resident, u)
			}
		}
		k := ep.rng.Intn(len(ep.resident))
		u := ep.resident[k]
		idx := u.next
		pl := u.samples[idx]
		u.next++
		cstart := time.Now()
		var buf []byte
		if u.records != nil {
			// Server-assembled or store-served unit: the record is
			// already in its own pool buffer — hand it out, no copy.
			buf = u.records[idx]
			u.records[idx] = nil
		} else {
			buf = ep.fs.alloc(int(pl.Len))
			copyFromChunks(u, pl, buf, ep.fs.cfg.ChunkSize)
		}
		ep.fs.pipe.ObserveCopy(time.Since(cstart))
		ep.fs.cfg.Trace.Record(trace.KindEmit, u.seq, u.node, int(pl.Len))
		items = append(items, Item{Index: pl.Sample, Data: buf})
		ep.emitted++
		if u.next == len(u.samples) {
			if u.chunks != nil {
				ep.fs.arena.Free(u.chunks)
				u.chunks = nil
			}
			u.records = nil // every entry already handed out
			ep.fs.cfg.Trace.Record(trace.KindFree, u.seq, u.node, 0)
			ep.resident = append(ep.resident[:k], ep.resident[k+1:]...)
		}
	}
	if len(items) == 0 {
		ep.finished = true
		if sk := ep.skipped.Load(); sk > 0 {
			ep.fs.counters.DegradedBatches.Add(1)
			return nil, false, &DegradedError{Samples: int(sk), Nodes: ep.degradedNodes()}
		}
		return nil, false, nil
	}
	if ep.skipped.Load() > 0 {
		ep.fs.counters.DegradedBatches.Add(1)
	}
	return items, true, nil
}

func copyFromChunks(u *unit, pl plan.Placed, dst []byte, chunkSize int) {
	off := pl.Offset - u.offset
	copied := 0
	for copied < int(pl.Len) {
		pos := off + int64(copied)
		ci := int(pos) / chunkSize
		within := int(pos) % chunkSize
		copied += copy(dst[copied:int(pl.Len)], u.chunks[ci].Bytes()[within:])
	}
}

// Drain consumes the whole epoch and returns all items. In degraded mode
// the returned error is a *DegradedError describing what was skipped;
// every returned item is still intact.
func (ep *Epoch) Drain() ([]Item, error) {
	var all []Item
	for {
		items, ok, err := ep.NextBatch()
		all = append(all, items...)
		if err != nil {
			return all, err
		}
		if !ok {
			return all, nil
		}
	}
}
