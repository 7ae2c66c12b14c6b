package live

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dlfs/internal/dataset"
	"dlfs/internal/metrics"
)

// drainAndVerify consumes a whole epoch and checksums every sample.
func drainAndVerify(t *testing.T, ep *Epoch, ds *dataset.Dataset) int {
	t.Helper()
	items, err := ep.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupt", it.Index)
		}
	}
	return len(items)
}

// TestCrossEpochPrefetchWarmsNextEpoch: with the clairvoyant prefetcher
// on, epoch N's tail fetches epoch N+1's units ahead of time, so the
// second epoch is served from the lookahead store with zero wire reads.
func TestCrossEpochPrefetchWarmsNextEpoch(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(80, 2000)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:          8 << 10,
		CacheBytes:         1 << 20,
		CrossEpochPrefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ep1, err := fs.Sequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep1, ds); n != ds.Len() {
		t.Fatalf("epoch 1 delivered %d of %d", n, ds.Len())
	}
	fs.WaitPrefetch()
	cold := fs.Pipeline().Snapshot()
	if cold.PrefetchedUnits == 0 || cold.PrefetchedBytes == 0 {
		t.Fatalf("no lookahead happened: %+v", cold)
	}
	if cold.PrefetchHitUnits != 0 {
		t.Fatalf("store hits before any warm epoch: %d", cold.PrefetchHitUnits)
	}

	// The default prediction is seed+1; epoch 2 must come entirely from
	// the store (world=1: the slice is the full unit set, so even the
	// seed only affects order, not membership).
	ep2, err := fs.Sequence(2)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep2, ds); n != ds.Len() {
		t.Fatalf("epoch 2 delivered %d of %d", n, ds.Len())
	}
	warm := fs.Pipeline().Snapshot()
	if warm.PrefetchHitUnits == 0 {
		t.Fatal("warm epoch never hit the lookahead store")
	}
	if got := warm.WireReads - cold.WireReads; got != 0 {
		t.Fatalf("warm epoch still issued %d wire reads", got)
	}
	if warm.PrefetchHitBytes != cold.PrefetchedBytes {
		t.Fatalf("hit bytes %d != prefetched bytes %d", warm.PrefetchHitBytes, cold.PrefetchedBytes)
	}
	if cov := warm.PrefetchCoverage(); cov <= 0 {
		t.Fatalf("coverage %f", cov)
	}
}

// TestWarmEpochHandsOffStoreRecords pins the zero-copy warm path: the
// lookahead store holds ready-to-emit records, so a warm epoch's items
// are exactly the stored buffers — no wire read, no copy into a fresh
// buffer, and (with the consumer recycling its batches) well under one
// heap allocation per sample.
func TestWarmEpochHandsOffStoreRecords(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(600, 3000) // 32 KiB chunks: multi-sample units and edge units
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:          32 << 10,
		CacheBytes:         1 << 20,
		CrossEpochPrefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	drainRecycling := func(seed int64, check func(Item)) int {
		ep, err := fs.Sequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			items, ok, err := ep.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				check(it)
			}
			n += len(items)
			fs.RecycleItems(items)
			if !ok {
				return n
			}
		}
	}
	// Expected checksums are computed up front: Dataset.Checksum
	// regenerates the sample, which would pollute the malloc count.
	want := make([]uint32, ds.Len())
	for i := range want {
		want[i] = ds.Checksum(i)
	}
	verify := func(it Item) {
		if dataset.ChecksumBytes(it.Data) != want[it.Index] {
			t.Fatalf("sample %d corrupt", it.Index)
		}
	}
	// The lookahead round normally runs concurrently with the epoch's
	// tail, and how far it races ahead of the consumer's recycling
	// decides whether its records are fresh allocations or recycled
	// ones. Hold it off and run each round after its epoch, so the
	// pool's state — and the count below — is the same on every run.
	// The collector stays off too: a collection empties sync.Pool.
	fs.prefetchBusy.Store(true)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Two warm-up epochs: the first fills the store over the wire, the
	// second is the first warm one. Afterwards every record buffer has
	// been recycled once, so the pool is in its steady state.
	for seed := int64(1); seed <= 2; seed++ {
		drainRecycling(seed, verify)
		fs.runPrefetch(seed+1, 0, 1)
	}

	stored := make(map[*byte]bool)
	fs.prefetch.mu.Lock()
	for _, e := range fs.prefetch.entries {
		for _, b := range e.records {
			stored[&b[0]] = true
		}
	}
	fs.prefetch.mu.Unlock()
	if len(stored) != ds.Len() {
		t.Fatalf("store holds %d records, want %d", len(stored), ds.Len())
	}

	before := fs.Pipeline().Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	n := drainRecycling(3, func(it Item) {
		if !stored[&it.Data[0]] {
			t.Fatalf("sample %d was not handed out from its stored record", it.Index)
		}
		verify(it)
	})
	runtime.ReadMemStats(&ms)
	perSample := float64(ms.Mallocs-mallocs) / float64(n)
	if n != ds.Len() {
		t.Fatalf("warm epoch delivered %d of %d", n, ds.Len())
	}
	if got := fs.Pipeline().Snapshot().WireReads - before.WireReads; got != 0 {
		t.Fatalf("warm epoch issued %d wire reads", got)
	}
	if perSample > 0.5 && !raceEnabled {
		t.Fatalf("warm epoch: %.2f mallocs/sample, want <= 0.5", perSample)
	}
}

// TestCrossEpochPrefetchSlices: on a sliced (cluster-shaped) sequence
// the prediction must match the next epoch's slice for the same rank —
// hits only make sense if the shuffle derivation is identical.
func TestCrossEpochPrefetchSlices(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(120, 1500)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:          8 << 10,
		CacheBytes:         1 << 20,
		CrossEpochPrefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ep1, err := fs.SequenceSlice(10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, ep1, ds)
	fs.WaitPrefetch()
	before := fs.Pipeline().Snapshot()
	if before.PrefetchedUnits == 0 {
		t.Fatal("no lookahead on the sliced epoch")
	}
	ep2, err := fs.SequenceSlice(11, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, ep2, ds)
	after := fs.Pipeline().Snapshot()
	if after.PrefetchHitUnits == 0 {
		t.Fatal("sliced warm epoch never hit the store")
	}
	if after.PrefetchHitUnits != before.PrefetchedUnits {
		t.Fatalf("hits %d != prefetched %d (prediction diverged from the real slice)",
			after.PrefetchHitUnits, before.PrefetchedUnits)
	}
}

// TestPrefetchDisabledByNegativeBudget: the canonical -1 budget turns
// the feature off even with CrossEpochPrefetch set.
func TestPrefetchDisabledByNegativeBudget(t *testing.T) {
	addrs := startTargets(t, 1)
	ds := testDS(20, 1000)
	fs, err := Mount(addrs, ds, Config{CrossEpochPrefetch: true, PrefetchBudgetBytes: -7})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if fs.prefetch != nil {
		t.Fatal("negative budget must disable the lookahead store")
	}
	ep, err := fs.Sequence(1)
	if err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, ep, ds)
	fs.WaitPrefetch()
	if got := fs.Pipeline().Snapshot().PrefetchedUnits; got != 0 {
		t.Fatalf("prefetched %d units with the store disabled", got)
	}
}

// TestPrefetchStoreBudget exercises the store in isolation: FIFO
// eviction under pressure, consume-once take semantics, and the
// resident-bytes invariant.
func TestPrefetchStoreBudget(t *testing.T) {
	pipe := &metrics.Pipeline{}
	var freed int
	s := newPrefetchStore(100, pipe, func(b []byte) { freed += len(b) })

	k := func(i int) unitKey { return unitKey{node: 0, offset: int64(i * 100), length: 40} }
	rec := func(n int) pfEntry { return pfEntry{records: [][]byte{make([]byte, n)}} }
	s.put(k(1), rec(40))
	s.put(k(2), rec(40))
	if got := s.residentBytes(); got != 80 {
		t.Fatalf("resident %d, want 80", got)
	}
	// Third insert exceeds the budget: the oldest entry is evicted.
	s.put(k(3), rec(40))
	if got := s.residentBytes(); got != 80 {
		t.Fatalf("resident %d after eviction, want 80", got)
	}
	if pipe.PrefetchEvictions.Load() != 1 || freed != 40 {
		t.Fatalf("evictions=%d freed=%d", pipe.PrefetchEvictions.Load(), freed)
	}
	if _, ok := s.take(k(1)); ok {
		t.Fatal("evicted entry still resident")
	}
	// take consumes: the second take misses, and the bytes are released
	// from the budget.
	if _, ok := s.take(k(2)); !ok {
		t.Fatal("entry 2 missing")
	}
	if _, ok := s.take(k(2)); ok {
		t.Fatal("take must consume the entry")
	}
	if got := s.residentBytes(); got != 40 {
		t.Fatalf("resident %d after takes, want 40", got)
	}
	// A duplicate put keeps the original and frees the newcomer.
	freed = 0
	s.put(k(3), rec(40))
	if freed != 40 {
		t.Fatal("duplicate put must free the new buffer")
	}
	// An entry larger than the whole budget is refused outright.
	freed = 0
	s.put(unitKey{node: 9}, rec(200))
	if freed != 200 {
		t.Fatal("over-budget put must free the buffer")
	}
	s.drain()
	if got := s.residentBytes(); got != 0 {
		t.Fatalf("resident %d after drain", got)
	}
}

// TestPoolHitRateWarmEpoch is the BENCH_5 pool_hit_rate:0 regression
// test: a consumer that recycles its batches must see a nonzero pool
// hit rate on the next epoch, and Stats must surface it in the
// pipeline snapshot (the bench reads exactly that field).
func TestPoolHitRateWarmEpoch(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(60, 2000)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	for _, seed := range []int64{1, 2} {
		ep, err := fs.Sequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		for {
			items, ok, err := ep.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
					t.Fatalf("sample %d corrupt", it.Index)
				}
			}
			fs.RecycleItems(items)
			if !ok {
				break
			}
		}
	}
	pl := fs.Stats().Pipeline
	if pl.PoolHits == 0 {
		t.Fatalf("warm epoch reports zero pool hits: %+v", pl)
	}
	if rate := pl.PoolHitRate(); rate <= 0 {
		t.Fatalf("pool hit rate %f, want > 0", rate)
	}
}
