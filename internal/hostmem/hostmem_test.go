package hostmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"eleos/internal/phys"
)

func TestBuddyBasics(t *testing.T) {
	b, err := NewBuddy(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := b.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := b.BlockSize(a1); sz != 128 {
		t.Fatalf("100-byte alloc got block of %d, want 128", sz)
	}
	a2, _ := b.Alloc(16)
	if a1 == a2 {
		t.Fatal("overlapping allocations")
	}
	if err := b.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(a1); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free error = %v", err)
	}
	if err := b.Free(a2); err != nil {
		t.Fatal(err)
	}
	// After freeing everything, the full region must coalesce.
	if got := b.FreeBytes(); got != 1<<20 {
		t.Fatalf("free bytes after full free: %d", got)
	}
	big, err := b.Alloc(1 << 20)
	if err != nil {
		t.Fatalf("region did not coalesce: %v", err)
	}
	_ = b.Free(big)
}

func TestBuddyExhaustion(t *testing.T) {
	b, _ := NewBuddy(0, 1<<12)
	var addrs []uint64
	for {
		a, err := b.Alloc(256)
		if err != nil {
			break
		}
		addrs = append(addrs, a)
	}
	if len(addrs) != 16 {
		t.Fatalf("got %d 256B blocks from 4KiB, want 16", len(addrs))
	}
	if _, err := b.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("exhaustion error = %v", err)
	}
	for _, a := range addrs {
		if err := b.Free(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuddyProperty drives random alloc/free sequences and checks the
// invariants a correct buddy allocator maintains: no overlap, block
// sizes are powers of two >= the request, accounting balances, and full
// coalescing after drain.
func TestBuddyProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const region = 1 << 18
		b, err := NewBuddy(1<<30, region)
		if err != nil {
			return false
		}
		type block struct{ addr, size uint64 }
		var live []block
		overlaps := func(a1, s1, a2, s2 uint64) bool {
			return a1 < a2+s2 && a2 < a1+s1
		}
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := uint64(rng.Intn(region/8) + 1)
				addr, err := b.Alloc(n)
				if err != nil {
					continue // exhaustion is legal
				}
				sz, err := b.BlockSize(addr)
				if err != nil || sz < n || sz&(sz-1) != 0 {
					return false
				}
				for _, l := range live {
					if overlaps(addr, sz, l.addr, l.size) {
						return false
					}
				}
				live = append(live, block{addr, sz})
			} else {
				i := rng.Intn(len(live))
				if err := b.Free(live[i].addr); err != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			var want uint64
			for _, l := range live {
				want += l.size
			}
			if b.InUse() != want {
				return false
			}
		}
		for _, l := range live {
			if err := b.Free(l.addr); err != nil {
				return false
			}
		}
		// Full coalescing: one max-order allocation must succeed.
		addr, err := b.Alloc(region)
		return err == nil && addr == 1<<30
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaReadWrite(t *testing.T) {
	a, err := NewArena(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := a.Alloc(10 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if addr < phys.HostBase {
		t.Fatalf("arena address %#x below HostBase", addr)
	}
	want := make([]byte, 5<<20)
	rand.New(rand.NewSource(1)).Read(want)
	// Write at a chunk-straddling offset.
	a.WriteAt(addr+123456, want)
	got := make([]byte, len(want))
	a.ReadAt(addr+123456, got)
	if !bytes.Equal(got, want) {
		t.Fatal("arena readback mismatch")
	}
	// Untouched memory reads as zero.
	z := make([]byte, 100)
	z[0] = 1
	a.ReadAt(addr+9<<20+500000, z)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("untouched arena byte %d = %d", i, v)
		}
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
}

// TestArenaReadSpansUntouchedChunk reads across a written chunk, a
// never-written chunk and another written chunk into a buffer of 0xFF
// bytes: the written bytes must come back and every untouched byte
// must be overwritten with zero.
func TestArenaReadSpansUntouchedChunk(t *testing.T) {
	a, _ := NewArena(1 << 30)
	addr, err := a.Alloc(4 * chunkSize) // buddy blocks are size-aligned
	if err != nil {
		t.Fatal(err)
	}
	const edge = 1000
	head := bytes.Repeat([]byte{0xAB}, edge)
	tail := bytes.Repeat([]byte{0xCD}, edge)
	a.WriteAt(addr+chunkSize-edge, head)
	a.WriteAt(addr+2*chunkSize, tail)
	got := bytes.Repeat([]byte{0xFF}, chunkSize+2*edge)
	a.ReadAt(addr+chunkSize-edge, got)
	if !bytes.Equal(got[:edge], head) {
		t.Fatal("written chunk's bytes not read back")
	}
	if !bytes.Equal(got[edge:edge+chunkSize], make([]byte, chunkSize)) {
		t.Fatal("untouched chunk not read as zeros")
	}
	if !bytes.Equal(got[edge+chunkSize:], tail) {
		t.Fatal("second written chunk's bytes not read back")
	}
}

func TestArenaSlice(t *testing.T) {
	a, _ := NewArena(1 << 30)
	addr, _ := a.Alloc(1 << 20)
	s := a.Slice(addr+8, 100)
	if s == nil {
		t.Fatal("in-chunk slice denied")
	}
	copy(s, "hello")
	got := make([]byte, 5)
	a.ReadAt(addr+8, got)
	if string(got) != "hello" {
		t.Fatalf("slice write not visible: %q", got)
	}
	// Chunk-straddling ranges must be refused.
	if s := a.Slice(addr+(1<<20)-4, 16); s != nil {
		t.Fatal("cross-chunk slice should be nil")
	}
}

func TestArenaFootprintSparse(t *testing.T) {
	a, _ := NewArena(16 << 30)
	addr, _ := a.Alloc(8 << 30) // 8GiB reserved...
	a.WriteAt(addr, []byte{1})  // ...but only one byte touched
	if fp := a.Footprint(); fp > 4<<20 {
		t.Fatalf("sparse arena materialized %d bytes for a 1-byte write", fp)
	}
}
