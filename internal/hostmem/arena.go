// Package hostmem provides the untrusted memory of the enclave's owner
// process: a sparse byte arena addressed by simulated physical address,
// plus a buddy allocator in the style of the SQLite zero-malloc
// allocator the paper uses for the SUVM backing store (§4.1). Evicted
// pages, RPC job queues, syscall I/O buffers and security-insensitive
// application metadata all live here.
//
// Trust domain: untrusted. Enclave code must reach the arena's raw byte
// accessors (ReadAt, WriteAt, Slice) only through the seal/suvm
// facades; eleoslint's trustboundary analyzer enforces that. The
// allocator is cycle-charged bookkeeping and stays deterministic.
//
//eleos:untrusted
//eleos:deterministic
package hostmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/phys"
)

// chunkShift sizes the sparse storage chunks (1 MiB).
const chunkShift = 20

const chunkSize = 1 << chunkShift

// Arena is the untrusted DRAM of the simulated machine. Storage is
// materialized lazily in 1 MiB chunks, so multi-gigabyte experiments
// only pay for pages they actually touch. An Arena is safe for
// concurrent use; byte-range races are the caller's concern, exactly as
// with real shared memory. Accesses outside the arena panic.
type Arena struct {
	//eleos:lockorder 140
	mu    sync.Mutex // guards alloc only
	alloc *Buddy

	// chunks is the chunk directory: slot i holds chunk i of the arena
	// once a compare-and-swap has materialized it. Lookups take no lock.
	chunks   []atomic.Pointer[[chunkSize]byte]
	resident atomic.Uint64 // materialized chunks
	end      uint64        // HostBase + the arena's size

	// trace, when set, observes every ReadAt/WriteAt — the vantage
	// point of the untrusted OS, which sees all traffic to host memory
	// (by page-table tricks or cache probing). Used to demonstrate the
	// §3.2.5 access-pattern side channel.
	trace atomic.Pointer[TraceFunc]
}

// TraceFunc observes one host-memory access.
type TraceFunc func(addr uint64, n int, write bool)

// SetTrace installs (or clears, with nil) the host-side observer.
func (a *Arena) SetTrace(f TraceFunc) {
	if f == nil {
		a.trace.Store(nil)
		return
	}
	a.trace.Store(&f)
}

func (a *Arena) observe(addr uint64, n int, write bool) {
	if f := a.trace.Load(); f != nil {
		(*f)(addr, n, write)
	}
}

// NewArena creates an arena spanning sizeBytes of untrusted address
// space starting at phys.HostBase. sizeBytes must be a power of two and
// at least MinBlock.
func NewArena(sizeBytes uint64) (*Arena, error) {
	b, err := NewBuddy(phys.HostBase, sizeBytes)
	if err != nil {
		return nil, err
	}
	chunks := make([]atomic.Pointer[[chunkSize]byte], (sizeBytes+chunkSize-1)>>chunkShift)
	return &Arena{alloc: b, chunks: chunks, end: phys.HostBase + sizeBytes}, nil
}

// Alloc reserves n bytes of untrusted memory and returns its physical
// address. The returned region is zeroed.
func (a *Arena) Alloc(n uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alloc.Alloc(n)
}

// Free releases a region previously returned by Alloc.
func (a *Arena) Free(addr uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alloc.Free(addr)
}

// InUse returns the number of bytes currently allocated (rounded up to
// block granularity, as a real buddy allocator would report).
func (a *Arena) InUse() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alloc.InUse()
}

// WriteAt copies data into the arena at physical address addr.
func (a *Arena) WriteAt(addr uint64, data []byte) {
	a.check(addr, len(data))
	a.observe(addr, len(data), true)
	for len(data) > 0 {
		c := a.chunk(addr, true)
		off := addr & (chunkSize - 1)
		n := copy(c[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// ReadAt copies bytes from the arena at addr into buf. Untouched memory
// reads as zero.
func (a *Arena) ReadAt(addr uint64, buf []byte) {
	a.check(addr, len(buf))
	a.observe(addr, len(buf), false)
	for len(buf) > 0 {
		off := addr & (chunkSize - 1)
		n := min(chunkSize-int(off), len(buf))
		if c := a.chunk(addr, false); c != nil {
			copy(buf[:n], c[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Slice returns a writable view of [addr, addr+n) when the range lies in
// a single chunk, materializing it if needed; otherwise it returns nil
// and the caller must fall back to ReadAt/WriteAt. It exists so sealing
// can encrypt directly into backing-store memory without extra copies.
func (a *Arena) Slice(addr uint64, n int) []byte {
	if n <= 0 || int(addr&(chunkSize-1))+n > chunkSize {
		return nil
	}
	a.check(addr, n)
	c := a.chunk(addr, true)
	off := addr & (chunkSize - 1)
	return c[off : int(off)+n]
}

// check panics unless [addr, addr+n) lies inside the arena.
func (a *Arena) check(addr uint64, n int) {
	if addr < phys.HostBase || addr > a.end || uint64(n) > a.end-addr {
		panic(fmt.Sprintf("hostmem: %d-byte access at %#x outside the arena [%#x, %#x)", n, addr, phys.HostBase, a.end))
	}
}

// chunk returns the storage of addr's chunk, materializing it if create
// is set; otherwise it returns nil for a chunk never written. Racing
// creators agree on one chunk: the compare-and-swap winner's.
func (a *Arena) chunk(addr uint64, create bool) *[chunkSize]byte {
	slot := &a.chunks[(addr-phys.HostBase)>>chunkShift]
	c := slot.Load()
	if c == nil && create {
		if slot.CompareAndSwap(nil, new([chunkSize]byte)) {
			a.resident.Add(1)
		}
		c = slot.Load()
	}
	return c
}

// Footprint returns the bytes of host storage actually materialized.
func (a *Arena) Footprint() uint64 {
	return a.resident.Load() * chunkSize
}

func (a *Arena) String() string {
	return fmt.Sprintf("arena[%d KiB in use, %d KiB resident]", a.InUse()>>10, a.Footprint()>>10)
}
