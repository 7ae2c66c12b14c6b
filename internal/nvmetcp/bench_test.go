package nvmetcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"dlfs/internal/blockdev"
)

// BenchmarkReadAt measures the single-command round trip. With pooled
// pending commands, reusable capsule headers, and zero-copy receive into
// the caller's buffer, the steady-state client side allocates nothing
// per read beyond goroutine scheduling noise (see -benchmem).
func BenchmarkReadAt(b *testing.B) {
	data := patterned(1 << 20)
	_, addr := startVecTarget(b, data)
	in, err := Connect(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.ReadAt(buf, int64(i%8)*(64<<10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTargetServe measures server-side serving throughput of the
// RPQ/SCQ worker-pool engine with staged and zero-copy payloads at
// increasing client queue depths. The historical comparison against
// the per-command-goroutine engine it replaced is the table in
// DESIGN.md §10.
func BenchmarkTargetServe(b *testing.B) {
	engines := []struct {
		name string
		cfg  Config
	}{
		{"pool_w4_staged", Config{Workers: 4, NoZeroCopy: true}},
		{"pool_w1_zerocopy", Config{Workers: 1}},
		{"pool_w4_zerocopy", Config{Workers: 4}},
		{"pool_w8_zerocopy", Config{Workers: 8}},
	}
	for _, eng := range engines {
		for _, depth := range []int{16, 64, 256} {
			cfg := eng.cfg
			cfg.Depth = depth
			b.Run(fmt.Sprintf("%s/depth%d", eng.name, depth), func(b *testing.B) {
				benchTargetServe(b, cfg, depth)
			})
		}
	}
}

// benchTargetServe drives one target with `depth` total outstanding
// sample-sized reads spread over several queue pairs. The driver speaks
// the wire format directly — batched submissions, buffered receive that
// discards payloads — so the server engine, not client-side machinery,
// is the measured bottleneck.
func benchTargetServe(b *testing.B, cfg Config, depth int) {
	const readSize = 4 << 10
	nconns := 8
	if depth < nconns {
		nconns = depth
	}
	perDepth := depth / nconns
	data := patterned(16 << 20)
	store := blockdev.New(int64(len(data)))
	if _, err := store.WriteAt(data, 0); err != nil {
		b.Fatal(err)
	}
	tgt := NewTargetConfig(store, cfg)
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tgt.Close() //nolint:errcheck

	conns := make([]net.Conn, nconns)
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		if err := writeCapsule(c, &capsule{opcode: opHello}); err != nil {
			b.Fatal(err)
		}
		if _, err := readCapsule(c); err != nil {
			b.Fatal(err)
		}
		conns[i] = c
	}

	b.SetBytes(readSize)
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var done atomic.Bool
	var wg, rwg sync.WaitGroup
	for _, conn := range conns {
		tokens := make(chan struct{}, perDepth)
		rwg.Add(1)
		go func(conn net.Conn) { // receiver: count completions, discard payloads
			defer rwg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			hdr := make([]byte, capsuleHeaderSize)
			for {
				if _, err := io.ReadFull(br, hdr); err != nil {
					if !done.Load() {
						b.Error(err)
					}
					return
				}
				if hdr[13] != statusOK {
					b.Errorf("status %d", hdr[13])
					return
				}
				if _, err := br.Discard(int(binary.LittleEndian.Uint32(hdr[22:26]))); err != nil {
					b.Error(err)
					return
				}
				<-tokens
			}
		}(conn)
		wg.Add(1)
		go func(conn net.Conn) { // submitter: pipeline reads up to perDepth deep
			defer wg.Done()
			bw := bufio.NewWriterSize(conn, 32<<10)
			hdr := make([]byte, capsuleHeaderSize)
			lenb := make([]byte, 4)
			binary.LittleEndian.PutUint32(lenb, readSize)
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					break
				}
				select {
				case tokens <- struct{}{}:
				default: // window full: push the batch, then wait
					if err := bw.Flush(); err != nil {
						b.Error(err)
						return
					}
					tokens <- struct{}{}
				}
				off := (i * readSize) % (int64(len(data)) - readSize)
				encodeHdr(hdr, uint64(i), opRead, 0, uint64(off), 4)
				bw.Write(hdr)  //nolint:errcheck
				bw.Write(lenb) //nolint:errcheck
			}
			if err := bw.Flush(); err != nil {
				b.Error(err)
				return
			}
			for j := 0; j < perDepth; j++ { // drain: wait for every completion
				tokens <- struct{}{}
			}
		}(conn)
	}
	wg.Wait()
	b.StopTimer()
	done.Store(true)
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	rwg.Wait()
}

// BenchmarkReadVec measures a coalesced 8-segment command against the
// same total byte count as eight BenchmarkReadAt calls would move.
func BenchmarkReadVec(b *testing.B) {
	data := patterned(1 << 20)
	_, addr := startVecTarget(b, data)
	in, err := Connect(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	const segN = 8
	bufs := make([]byte, segN*(8<<10))
	segs := make([]Seg, segN)
	for i := range segs {
		segs[i] = Seg{Dst: bufs[i*(8<<10) : (i+1)*(8<<10)], Off: int64(i * (100 << 10))}
	}
	b.SetBytes(int64(len(bufs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.ReadVec(segs); err != nil {
			b.Fatal(err)
		}
	}
}
