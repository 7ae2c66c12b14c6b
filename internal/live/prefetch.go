package live

import (
	"sync"
	"sync/atomic"
	"time"

	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/trace"
)

// Clairvoyant cross-epoch prefetch (Config.CrossEpochPrefetch).
//
// The seeded epoch order is deterministic: every rank can compute the
// *next* epoch's shuffled unit slice before the current epoch finishes
// (the property clairvoyant prefetching exploits — the access sequence
// is known arbitrarily far ahead). Once the current epoch's dispatcher
// has handed out all of its fetch groups, the queue pairs spend the
// tail of the epoch mostly idle between completions; the prefetcher
// fills those gaps with coalesced reads for next-epoch units — the
// epoch's own fetch, with the store as its sink — and parks them in a
// bounded lookahead store as ready-to-emit per-sample records, the form
// the epoch consumes. When the next epoch's fetchGroup finds its unit
// in the store it takes the records and skips both the wire and the
// copy stage: a warm NextBatch just hands out buffers.
//
// The store is bounded by Config.PrefetchBudgetBytes and best-effort
// throughout: a full budget stops the prefetcher (it never evicts what
// it just fetched), a down target skips that node's units via the same
// circuit breaker the demand path uses, and a consumer running a
// different seed than predicted simply misses and pays the wire as
// before. Entries are consumed at most once (take removes them), so a
// store buffer is owned by exactly one side at a time.

// unitKey identifies a fetch unit by placement. The unit plan is a pure
// function of the dataset placement, so the same key is derived by the
// prefetcher (from the predicted epoch) and the consumer (from the
// actual epoch) independently.
type unitKey struct {
	node   uint16
	offset int64
	length int32
}

func (u *unit) key() unitKey { return unitKey{node: u.node, offset: u.offset, length: u.length} }

// pfEntry is one parked unit: a pool buffer per record, parallel to
// the unit's sample list.
type pfEntry struct {
	records [][]byte
}

// size reports the entry's budget footprint: its record bytes.
func (e pfEntry) size() int64 {
	var n int64
	for _, b := range e.records {
		n += int64(len(b))
	}
	return n
}

// release recycles every buffer the entry owns.
func (e pfEntry) release(free func([]byte)) {
	for _, b := range e.records {
		if b != nil {
			free(b)
		}
	}
}

// prefetchStore is the bounded lookahead region: unit payloads fetched
// ahead of their epoch, keyed by placement identity. FIFO eviction only
// reclaims stale leftovers (entries predicted for a seed that was never
// consumed); within one prefetch round the budget check stops the
// producer before eviction would be needed.
type prefetchStore struct {
	budget int64
	pipe   *metrics.Pipeline
	free   func([]byte)

	mu      sync.Mutex
	entries map[unitKey]pfEntry
	order   []unitKey // insertion order; lazily compacted on eviction
	bytes   int64
}

func newPrefetchStore(budget int64, pipe *metrics.Pipeline, free func([]byte)) *prefetchStore {
	return &prefetchStore{
		budget:  budget,
		pipe:    pipe,
		free:    free,
		entries: make(map[unitKey]pfEntry),
	}
}

// put inserts a fetched payload, taking ownership of the entry's
// buffers. Entries already present keep the original; oversized inserts
// evict oldest-first until the budget holds.
func (s *prefetchStore) put(k unitKey, e pfEntry) {
	sz := e.size()
	if sz > s.budget {
		e.release(s.free) // can never fit: refuse before evicting anything
		return
	}
	s.mu.Lock()
	if _, dup := s.entries[k]; dup {
		s.mu.Unlock()
		e.release(s.free)
		return
	}
	for s.bytes+sz > s.budget && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		old, ok := s.entries[victim]
		if !ok {
			continue // already consumed by take
		}
		delete(s.entries, victim)
		s.bytes -= old.size()
		old.release(s.free)
		s.pipe.PrefetchEvictions.Add(1)
	}
	if s.bytes+sz > s.budget {
		s.mu.Unlock()
		e.release(s.free)
		return
	}
	s.entries[k] = e
	s.order = append(s.order, k)
	s.bytes += sz
	s.mu.Unlock()
}

// take removes and returns the entry for k; ok is false on miss. The
// caller owns the returned buffers.
func (s *prefetchStore) take(k unitKey) (pfEntry, bool) {
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		delete(s.entries, k)
		s.bytes -= e.size()
	}
	s.mu.Unlock()
	return e, ok
}

// residentBytes reports the store footprint (tests assert it never
// exceeds the budget).
func (s *prefetchStore) residentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// drain frees every entry (Close).
func (s *prefetchStore) drain() {
	s.mu.Lock()
	for k, e := range s.entries {
		delete(s.entries, k)
		e.release(s.free)
	}
	s.order = nil
	s.bytes = 0
	s.mu.Unlock()
}

// nextSeed predicts the next epoch's seed (Config.NextEpochSeed,
// default seed+1 — the conventional per-epoch reseed).
func (fs *FS) nextSeed(seed int64) int64 {
	if fs.cfg.NextEpochSeed != nil {
		return fs.cfg.NextEpochSeed(seed)
	}
	return seed + 1
}

// maybePrefetch launches one background prefetch round for the
// predicted epoch (seed, rank, world) unless a round is already
// running. Called by the dispatcher once the current epoch's groups are
// all handed out, i.e. when poll gaps start opening.
func (fs *FS) maybePrefetch(seed int64, rank, world int) {
	if fs.prefetch == nil || !fs.prefetchBusy.CompareAndSwap(false, true) {
		return
	}
	fs.prefetchWG.Add(1)
	go func() {
		defer fs.prefetchWG.Done()
		defer fs.prefetchBusy.Store(false)
		fs.runPrefetch(seed, rank, world)
	}()
}

// WaitPrefetch blocks until any in-flight prefetch round finishes —
// benchmarks and tests use it to draw a deterministic line between
// "epoch N done" and "epoch N+1 starts warm".
func (fs *FS) WaitPrefetch() { fs.prefetchWG.Wait() }

// runPrefetch computes the predicted epoch's unit slice for this rank
// and fetches it into the store, coalescing same-target neighbours into
// vectored reads bounded by CoalesceBytes, until the budget fills or
// the FS closes.
func (fs *FS) runPrefetch(seed int64, rank, world int) {
	units, err := fs.epochUnitSlice(seed, rank, world, 0, -1)
	if err != nil {
		return
	}
	var group []*unit
	var groupBytes int64
	var round int64
	flush := func() {
		if len(group) == 0 {
			return
		}
		round += fs.fetchAhead(group)
		group = group[:0]
		groupBytes = 0
	}
	for _, u := range units {
		select {
		case <-fs.prefetchStop:
			return
		default:
		}
		if round+groupBytes+int64(u.length) > fs.cfg.PrefetchBudgetBytes {
			break // budget exhausted: never evict this round's own entries
		}
		if len(group) > 0 && (group[0].node != u.node || groupBytes+int64(u.length) > fs.cfg.CoalesceBytes) {
			flush()
		}
		group = append(group, u)
		groupBytes += int64(u.length)
	}
	flush()
}

// fetchAhead brings one coalesced group of predicted units into the
// store. The cooperative peer cache is consulted first (cluster mounts
// only) — units fully resident on the owning rank park without
// touching the storage wire; only the residual misses go to fetch.
// Best-effort: breaker refusals and transport errors drop the group
// (the next epoch pays the wire for those units as usual). Returns the
// bytes stored.
func (fs *FS) fetchAhead(group []*unit) int64 {
	group, stored := fs.prefetchFromPeers(group)
	if len(group) == 0 {
		return stored
	}
	n, _ := fs.fetch(fs.targets[group[0].node], group, toStore)
	return stored + n
}

// splitRecords turns a unit's raw byte range, which a chunked fetch
// left in records[0], into per-sample records. A unit that is a single
// sample spanning the whole range (an edge unit) keeps the buffer as its
// record; otherwise each sample is copied into its own pool buffer and
// the raw buffer is recycled. The copy runs here, in the prefetch
// round, so the epoch that consumes the unit does none.
func (fs *FS) splitRecords(u *unit) {
	if len(u.samples) == 1 && u.samples[0].Len == u.length {
		return
	}
	raw := u.records[0]
	for si, pl := range u.samples {
		off := pl.Offset - u.offset
		u.records[si] = fs.alloc(int(pl.Len))
		copy(u.records[si], raw[off:off+int64(pl.Len)])
	}
	fs.Recycle(raw)
}

// park moves a fetched unit's records into the lookahead store and
// counts them, returning the record bytes parked.
func (fs *FS) park(u *unit) int64 {
	e := pfEntry{records: u.records}
	u.records = nil
	sz := e.size()
	fs.prefetch.put(u.key(), e)
	fs.pipe.PrefetchedUnits.Add(1)
	fs.pipe.PrefetchedBytes.Add(sz)
	return sz
}

// prefetchFromPeers tries to satisfy predicted units from the
// cooperative peer sample cache before the storage wire (cluster
// mounts only). All-or-nothing per unit: a unit parks only when the
// owning rank answers every one of its samples — partial pulls are
// recycled and the unit stays a miss, so a store hit is always a
// complete unit. Peer hits, bytes, and fallbacks land on the same
// counters as the demand path. Skipped entirely when the epoch runs a
// lossy server transform (peers hold raw records). Returns the
// residual misses and the bytes parked.
func (fs *FS) prefetchFromPeers(group []*unit) ([]*unit, int64) {
	if fs.peers == nil {
		return group, 0
	}
	if x := fs.assemblyTransform(); fs.cfg.ServerAssembly &&
		x != nvmetcp.TransformNone && x != nvmetcp.TransformCRC32C {
		return group, 0
	}
	misses := group[:0:0]
	var stored int64
	for _, u := range group {
		owner := int(u.node)
		if owner == fs.rank || owner >= len(fs.peers.clients) || fs.peers.clients[owner] == nil {
			misses = append(misses, u)
			continue
		}
		u.records = make([][]byte, len(u.samples))
		complete := true
		for si, pl := range u.samples {
			if u.records[si] = fs.peerFetch(owner, pl.Sample, int(pl.Len)); u.records[si] == nil {
				complete = false
				break
			}
		}
		if !complete {
			fs.freeUnit(u)
			misses = append(misses, u)
			continue
		}
		stored += fs.park(u)
	}
	return misses, stored
}

// serveFromStore satisfies as many of g's units as the lookahead store
// holds. A hit hands the stored record buffers to the unit — no wire,
// no chunks, no copy stage. Returns the units that missed and must be
// fetched. Called by fetchGroup.
func (ep *Epoch) serveFromStore(g *fetchGroup) []*unit {
	fs := ep.fs
	misses := g.units[:0:0]
	var hit bool
	prep := time.Now()
	for _, u := range g.units {
		e, ok := fs.prefetch.take(u.key())
		if !ok {
			misses = append(misses, u)
			continue
		}
		if len(e.records) != len(u.samples) {
			// Predicted sample split diverged from the actual epoch's
			// (shouldn't happen — the plan is a pure function of
			// placement); drop rather than mis-emit.
			e.release(fs.Recycle)
			misses = append(misses, u)
			continue
		}
		u.records = e.records
		fs.pipe.PrefetchHitUnits.Add(1)
		fs.pipe.PrefetchHitBytes.Add(e.size())
		fs.cfg.Trace.Record(trace.KindComplete, u.seq, u.node, int(u.length))
		hit = true
	}
	if hit {
		fs.pipe.ObservePrep(time.Since(prep))
	}
	return misses
}

// prefetchState is the FS-side bookkeeping for the cross-epoch
// prefetcher, embedded in FS so single-node and cluster mounts share
// the wiring.
type prefetchState struct {
	prefetch     *prefetchStore // nil unless CrossEpochPrefetch is on
	prefetchStop chan struct{}  // closed by Close; aborts in-flight rounds
	prefetchBusy atomic.Bool    // at most one round in flight
	prefetchWG   sync.WaitGroup
}
