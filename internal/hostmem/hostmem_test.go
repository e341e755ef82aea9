package hostmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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

// TestArenaOutOfBoundsPanics pins that every raw accessor refuses an
// address range outside [HostBase, HostBase+size) and names the address
// and the bounds, rather than materialize storage outside the arena.
func TestArenaOutOfBoundsPanics(t *testing.T) {
	const size = 4 << 20
	a, _ := NewArena(size)
	end := phys.HostBase + size
	for _, tc := range []struct {
		name string
		addr uint64
		op   func(addr uint64)
	}{
		{"ReadAt below", phys.HostBase - 8, func(addr uint64) { a.ReadAt(addr, make([]byte, 8)) }},
		{"ReadAt past the end", end - 4, func(addr uint64) { a.ReadAt(addr, make([]byte, 8)) }},
		{"WriteAt past the end", end, func(addr uint64) { a.WriteAt(addr, []byte{1}) }},
		{"WriteAt far above", end + 1<<30, func(addr uint64) { a.WriteAt(addr, []byte{1}) }},
		{"Slice past the end", end, func(addr uint64) { a.Slice(addr, 8) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{fmt.Sprintf("%#x", tc.addr), fmt.Sprintf("%#x", uint64(phys.HostBase)), fmt.Sprintf("%#x", end)} {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic %q does not name %s", msg, want)
					}
				}
			}()
			tc.op(tc.addr)
		})
	}
	if fp := a.Footprint(); fp != 0 {
		t.Fatalf("refused accesses materialized %d bytes", fp)
	}
	// The last byte of the arena is in bounds.
	a.WriteAt(end-1, []byte{7})
	if got := a.Slice(end-1, 1); got[0] != 7 {
		t.Fatalf("last arena byte = %d, want 7", got[0])
	}
}

// TestArenaConcurrentMaterialize has goroutines race to materialize one
// chunk, each writing its own byte: the chunk directory must install a
// single chunk, so every write is visible and one chunk is resident.
func TestArenaConcurrentMaterialize(t *testing.T) {
	const writers = 8
	a, _ := NewArena(1 << 30)
	addr, _ := a.Alloc(chunkSize)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if w%2 == 0 {
				a.WriteAt(addr+uint64(w), []byte{byte(w + 1)})
			} else {
				a.Slice(addr+uint64(w), 1)[0] = byte(w + 1)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	got := make([]byte, writers)
	a.ReadAt(addr, got)
	for w, b := range got {
		if b != byte(w+1) {
			t.Fatalf("byte %d = %d, want %d: a racing materialization lost a write", w, b, w+1)
		}
	}
	if fp := a.Footprint(); fp != chunkSize {
		t.Fatalf("footprint %d after materializing one chunk, want %d", fp, chunkSize)
	}
}
