package bufpool

import (
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	p := New()
	for _, n := range []int{1, 511, 512, 513, 4096, (4 << 20)} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) len = %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 {
			t.Fatalf("Get(%d) cap %d not a power of two", n, c)
		}
		p.Put(b)
	}
}

func TestRecycleHit(t *testing.T) {
	p := New()
	a := p.Get(1000)
	p.Put(a)
	b := p.Get(900)
	hits, misses, puts := p.Stats()
	if puts != 1 || hits+misses != 2 {
		t.Fatalf("stats = %d/%d/%d, want 2 gets and 1 put", hits, misses, puts)
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop Puts at random, so
		// whether the second Get hits is up to chance.
		return
	}
	if &a[0] != &b[0] {
		// sync.Pool may drop buffers under GC pressure, but in a quiet
		// unit test the buffer must come back.
		t.Fatal("recycled buffer not reused")
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", hits, misses, puts)
	}
	if r := p.HitRate(); r != 0.5 {
		t.Fatalf("hit rate = %v", r)
	}
}

func TestOversizedFallsThrough(t *testing.T) {
	p := New()
	n := (4 << 20) + 1
	b := p.Get(n)
	if len(b) != n {
		t.Fatalf("len %d", len(b))
	}
	p.Put(b) // must be a silent drop
	if _, _, puts := p.Stats(); puts != 0 {
		t.Fatal("oversized buffer was pooled")
	}
}

func TestForeignPutIgnored(t *testing.T) {
	p := New()
	p.Put(make([]byte, 700)) // cap 700 is not a class size
	if _, _, puts := p.Stats(); puts != 0 {
		t.Fatal("foreign slice was pooled")
	}
	if b := p.Get(700); len(b) != 700 {
		t.Fatal("Get after foreign Put broken")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.Get(512 + (g+i)%4096)
				b[0] = byte(i)
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestGetPutNoAllocs pins the steady-state recycle loop at zero heap
// allocations: Get hands its emptied slice header to Put instead of
// Put boxing a fresh one per call.
func TestGetPutNoAllocs(t *testing.T) {
	p := New()
	p.Put(p.Get(4096))
	allocs := testing.AllocsPerRun(1000, func() {
		p.Put(p.Get(4096))
	})
	if allocs != 0 {
		t.Fatalf("Get+Put: %.2f allocs/op, want 0", allocs)
	}
}

func BenchmarkGetPut4K(b *testing.B) {
	p := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Get(4096)
		p.Put(buf)
	}
}
