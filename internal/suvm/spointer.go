package suvm

import (
	"bytes"
	"fmt"

	"eleos/internal/sgx"
)

// SPtr is a secure active pointer (spointer, §3.2.2): a pointer into
// SUVM memory that performs software address translation. After the
// first access the translated EPC++ frame is cached in the spointer
// ("linked"), pinning the page, so subsequent accesses on the same page
// skip the page-table lookup entirely — one lookup per page instead of
// one per access. Crossing a page boundary, cloning or unlinking drops
// the link and the pin.
//
// Like the pointer it models, an SPtr is owned by one thread at a time;
// concurrent use of one SPtr requires external synchronization (clones
// are cheap and start unlinked, following the paper's assignment rule).
type SPtr struct {
	h      *Heap
	base   uint64 // backing-store address of the allocation
	size   uint64
	off    uint64 // current offset within the allocation
	direct bool
	dom    *Domain // owning domain

	frame      int32 // linked EPC++ frame, or -1
	linkedPage uint64
	dirty      bool // pending dirty state, propagated on unlink
}

// Heap returns the owning SUVM heap.
func (p *SPtr) Heap() *Heap { return p.h }

// Size returns the allocation size in bytes.
func (p *SPtr) Size() uint64 { return p.size }

// Offset returns the spointer's current offset.
func (p *SPtr) Offset() uint64 { return p.off }

// Linked reports whether the spointer currently caches a translation.
func (p *SPtr) Linked() bool { return p.frame >= 0 }

// BackingBase returns the untrusted-memory address of the allocation's
// sealed backing bytes. This is not secret — the host OS allocates and
// services that memory — and is exposed for tests and side-channel
// demonstrations that play the OS's role.
func (p *SPtr) BackingBase() uint64 { return p.base }

// Clone returns a copy positioned at the same offset. Following the
// paper's pinned-page heuristics, the copy starts unlinked ("when
// assigning a linked spointer to another spointer, the new spointer is
// initialized unlinked").
func (p *SPtr) Clone() *SPtr {
	c := *p
	c.frame = -1
	c.dirty = false
	return &c
}

// Unlink drops the cached translation, unpinning the page and
// propagating the spointer's dirty bit into the page table. The paper
// applies this automatically on destruction and page-boundary crossings;
// Go has no destructors, so holders call it when done (Free does too).
func (p *SPtr) Unlink(th *sgx.Thread) {
	if p.frame < 0 || p.h == nil {
		return
	}
	p.h.release(th, p.frame, p.dirty)
	p.frame = -1
	p.dirty = false
}

// Advance moves the offset by delta bytes, unlinking if the new offset
// leaves the linked page — pointer arithmetic, spointer-style.
func (p *SPtr) Advance(th *sgx.Thread, delta int64) error {
	if p.h == nil {
		return ErrFreed
	}
	n := int64(p.off) + delta
	if n < 0 || uint64(n) > p.size {
		return fmt.Errorf("%w: advance to %d of %d-byte allocation", ErrOutOfRange, n, p.size)
	}
	p.off = uint64(n)
	if p.frame >= 0 && p.h.bsPageOf(p.base+p.off) != p.linkedPage {
		p.Unlink(th)
	}
	return nil
}

// Seek sets the absolute offset, with the same unlink rule as Advance.
func (p *SPtr) Seek(th *sgx.Thread, off uint64) error {
	if p.h == nil {
		return ErrFreed
	}
	if off > p.size {
		return fmt.Errorf("%w: seek to %d of %d-byte allocation", ErrOutOfRange, off, p.size)
	}
	p.off = off
	if p.frame >= 0 && p.h.bsPageOf(p.base+p.off) != p.linkedPage {
		p.Unlink(th)
	}
	return nil
}

// Read copies len(buf) bytes from the current offset. On the linked fast
// path this is a plain EPC access plus a two-compare link check — the
// 15–25% overhead the paper measures in Fig 8. Reads do not mark the
// page dirty (the get/set discipline of §3.2.4).
func (p *SPtr) Read(th *sgx.Thread, buf []byte) error {
	return p.accessCurrent(th, buf, false)
}

// Write copies data to the current offset and marks the spointer dirty.
func (p *SPtr) Write(th *sgx.Thread, data []byte) error {
	return p.accessCurrent(th, data, true)
}

func (p *SPtr) accessCurrent(th *sgx.Thread, buf []byte, write bool) error {
	if p.h == nil {
		return ErrFreed
	}
	if len(buf) == 0 {
		return nil
	}
	addr := p.base + p.off
	if p.off+uint64(len(buf)) > p.size {
		return fmt.Errorf("%w: %d-byte access at offset %d of %d-byte allocation", ErrOutOfRange, len(buf), p.off, p.size)
	}
	if p.direct {
		return p.h.directAccess(th, addr, buf, write, p.dom)
	}
	h := p.h
	pageOff := addr & (h.pageSize - 1)
	sameLinkedPage := p.frame >= 0 && h.bsPageOf(addr) == p.linkedPage
	withinPage := pageOff+uint64(len(buf)) <= h.pageSize

	if sameLinkedPage && withinPage {
		// Linked fast path: no page-table lookup, just the boundary and
		// link checks (modelled as two L1-level operations).
		th.T.Charge(2 * h.model.L1Hit)
		fv := h.frameVaddr(p.frame) + pageOff
		if write {
			th.Write(fv, buf)
			p.dirty = true
			setFlag(&h.frames[p.frame].dirty) // also visible pre-unlink; see note below
		} else {
			th.Read(fv, buf)
		}
		setFlag(&h.frames[p.frame].accessed)
		return nil
	}
	if !withinPage {
		// Spans pages: go through the transient path, staying unlinked.
		p.Unlink(th)
		return h.access(th, addr, buf, write, p.dom)
	}
	// Unlinked single-page access: take the pin and keep it (link).
	p.Unlink(th)
	bsPage := h.bsPageOf(addr)
	f, err := h.acquire(th, bsPage, p.dom)
	if err != nil {
		return err
	}
	p.frame = f
	p.linkedPage = bsPage
	fv := h.frameVaddr(f) + pageOff
	if write {
		th.Write(fv, buf)
		p.dirty = true
		setFlag(&h.frames[f].dirty)
	} else {
		th.Read(fv, buf)
	}
	return nil
}

// Note on the linked write path: the paper defers copying the spointer
// dirty bit into the page table until unlink to save page-table stores.
// A pinned page can never be evicted, so the deferred copy is safe
// there; our frames' dirty flags are cleared only by an eviction, under
// the shard lock, of a frame with no pin, and a linked frame is pinned,
// so setting it directly at write time is equally safe and keeps
// Free/crash paths conservative.

// Get reads the byte at the current offset (the paper's get macro).
func (p *SPtr) Get(th *sgx.Thread) (byte, error) {
	var b [1]byte
	err := p.Read(th, b[:])
	return b[0], err
}

// Set writes the byte at the current offset (the paper's set macro).
func (p *SPtr) Set(th *sgx.Thread, b byte) error {
	return p.Write(th, []byte{b})
}

// ReadU64 reads a little-endian uint64 at the current offset.
func (p *SPtr) ReadU64(th *sgx.Thread) (uint64, error) {
	var b [8]byte
	if err := p.Read(th, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 at the current offset.
func (p *SPtr) WriteU64(th *sgx.Thread, v uint64) error {
	var b [8]byte
	putLeU64(b[:], v)
	return p.Write(th, b[:])
}

// ReadAt copies from an absolute offset without moving or linking the
// spointer — the container access pattern: "spointers at rest are
// unlinked", enabling arbitrarily large data structures (§3.2.2).
func (p *SPtr) ReadAt(th *sgx.Thread, off uint64, buf []byte) error {
	return p.accessAt(th, off, buf, false)
}

// WriteAt copies to an absolute offset without moving or linking.
func (p *SPtr) WriteAt(th *sgx.Thread, off uint64, data []byte) error {
	return p.accessAt(th, off, data, true)
}

func (p *SPtr) accessAt(th *sgx.Thread, off uint64, buf []byte, write bool) error {
	if p.h == nil {
		return ErrFreed
	}
	if len(buf) == 0 {
		return nil
	}
	if off+uint64(len(buf)) > p.size {
		return fmt.Errorf("%w: %d-byte access at offset %d of %d-byte allocation", ErrOutOfRange, len(buf), off, p.size)
	}
	if p.direct {
		return p.h.directAccess(th, p.base+off, buf, write, p.dom)
	}
	return p.h.access(th, p.base+off, buf, write, p.dom)
}

// U64At reads a little-endian uint64 at an absolute offset.
func (p *SPtr) U64At(th *sgx.Thread, off uint64) (uint64, error) {
	var b [8]byte
	if err := p.ReadAt(th, off, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// PutU64At writes a little-endian uint64 at an absolute offset.
func (p *SPtr) PutU64At(th *sgx.Thread, off uint64, v uint64) error {
	var b [8]byte
	putLeU64(b[:], v)
	return p.WriteAt(th, off, b[:])
}

// CompareAt compares [off, off+len(want)) with want, page by page — the
// suvm_memcmp of §3.2.3, used for key comparison in containers. Returns
// the usual -1/0/+1.
func (p *SPtr) CompareAt(th *sgx.Thread, off uint64, want []byte) (int, error) {
	if p.h == nil {
		return 0, ErrFreed
	}
	if off+uint64(len(want)) > p.size {
		return 0, fmt.Errorf("%w: %d-byte compare at offset %d of %d-byte allocation", ErrOutOfRange, len(want), off, p.size)
	}
	var tmp [256]byte
	for len(want) > 0 {
		n := len(want)
		if n > len(tmp) {
			n = len(tmp)
		}
		if err := p.accessAt(th, off, tmp[:n], false); err != nil {
			return 0, err
		}
		if c := bytes.Compare(tmp[:n], want[:n]); c != 0 {
			return c, nil
		}
		off += uint64(n)
		want = want[n:]
	}
	return 0, nil
}

// MemsetAt fills [off, off+n) with b — the suvm_memset of §3.2.3.
func (p *SPtr) MemsetAt(th *sgx.Thread, off, n uint64, b byte) error {
	if p.h == nil {
		return ErrFreed
	}
	if off+n > p.size {
		return fmt.Errorf("%w: %d-byte memset at offset %d of %d-byte allocation", ErrOutOfRange, n, off, p.size)
	}
	var chunk [512]byte
	if b != 0 {
		for i := range chunk {
			chunk[i] = b
		}
	}
	for n > 0 {
		c := n
		if c > uint64(len(chunk)) {
			c = uint64(len(chunk))
		}
		if err := p.accessAt(th, off, chunk[:c], true); err != nil {
			return err
		}
		off += c
		n -= c
	}
	return nil
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

// Memcpy copies n bytes between two SUVM allocations (possibly on
// different heaps) — the suvm_memcpy of §3.2.3.
func Memcpy(th *sgx.Thread, dst *SPtr, dstOff uint64, src *SPtr, srcOff, n uint64) error {
	var buf [1024]byte
	for n > 0 {
		c := n
		if c > uint64(len(buf)) {
			c = uint64(len(buf))
		}
		if err := src.ReadAt(th, srcOff, buf[:c]); err != nil {
			return err
		}
		if err := dst.WriteAt(th, dstOff, buf[:c]); err != nil {
			return err
		}
		srcOff += c
		dstOff += c
		n -= c
	}
	return nil
}
