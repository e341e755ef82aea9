// Package kv provides the hash tables of the paper's microbenchmark
// workloads, written against a memory-region abstraction so one
// implementation runs on untrusted host memory, on the enclave's
// hardware-paged heap, or on SUVM — which is exactly the comparison the
// evaluation draws. Two fixed-size (8-byte key / 8-byte value) variants
// exist because Fig 2b contrasts them: open addressing (no pointer
// chasing, TLB-insensitive) and chaining (pointer chasing, hurt by the
// TLB flushes of enclave exits). A variable-size BlobTable serves the
// face-verification server's 40-byte-key / 232-KiB-value store.
//
// Trust domain: trusted. The tables run inside the enclave over the
// Mem abstraction; host-memory placement goes through suvm/sgx
// accessors, never through raw hostmem access (enforced by eleoslint).
//
//eleos:trusted
//eleos:deterministic
package kv

import (
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// Mem is a fixed-size random-access memory region with explicit cost
// accounting: every access happens on behalf of a simulated hardware
// thread and is charged to it.
type Mem interface {
	Read(th *sgx.Thread, off uint64, buf []byte) error
	Write(th *sgx.Thread, off uint64, data []byte) error
	Size() uint64
}

// Region is a Mem over a contiguous simulated address range — untrusted
// host memory or enclave-private heap, depending on the base address
// (sgx.Thread dispatches on it).
type Region struct {
	base uint64
	size uint64
}

// NewRegion wraps [base, base+size).
func NewRegion(base, size uint64) *Region { return &Region{base: base, size: size} }

// HostRegion allocates a fresh untrusted region.
func HostRegion(plat *sgx.Platform, size uint64) *Region {
	return NewRegion(plat.AllocHost(size), size)
}

// EnclaveRegion allocates a fresh enclave-heap region (hardware-paged).
func EnclaveRegion(e *sgx.Enclave, size uint64) *Region {
	return NewRegion(e.Alloc(size), size)
}

// Size returns the region length in bytes.
func (r *Region) Size() uint64 { return r.size }

// Read implements Mem.
func (r *Region) Read(th *sgx.Thread, off uint64, buf []byte) error {
	if off+uint64(len(buf)) > r.size {
		return suvm.ErrOutOfRange
	}
	th.Read(r.base+off, buf)
	return nil
}

// Write implements Mem.
func (r *Region) Write(th *sgx.Thread, off uint64, data []byte) error {
	if off+uint64(len(data)) > r.size {
		return suvm.ErrOutOfRange
	}
	th.Write(r.base+off, data)
	return nil
}

// SUVMRegion is a Mem backed by one SUVM allocation, accessed in the
// container style (unlinked, transiently pinned per access).
type SUVMRegion struct {
	p *suvm.SPtr
}

// NewSUVMRegion allocates size bytes from the allocator — a whole Heap
// or one service's Domain — and wraps them.
func NewSUVMRegion(h suvm.Allocator, size uint64) (*SUVMRegion, error) {
	p, err := h.Malloc(size)
	if err != nil {
		return nil, err
	}
	return &SUVMRegion{p: p}, nil
}

// WrapSPtr adapts an existing allocation.
func WrapSPtr(p *suvm.SPtr) *SUVMRegion { return &SUVMRegion{p: p} }

// SPtr exposes the underlying allocation.
func (r *SUVMRegion) SPtr() *suvm.SPtr { return r.p }

// Size returns the allocation length.
func (r *SUVMRegion) Size() uint64 { return r.p.Size() }

// Read implements Mem.
func (r *SUVMRegion) Read(th *sgx.Thread, off uint64, buf []byte) error {
	return r.p.ReadAt(th, off, buf)
}

// Write implements Mem.
func (r *SUVMRegion) Write(th *sgx.Thread, off uint64, data []byte) error {
	return r.p.WriteAt(th, off, data)
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

func readU64(th *sgx.Thread, m Mem, off uint64) (uint64, error) {
	var b [8]byte
	if err := m.Read(th, off, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

func writeU64(th *sgx.Thread, m Mem, off, v uint64) error {
	var b [8]byte
	putLeU64(b[:], v)
	return m.Write(th, off, b[:])
}

// hash64 is a murmur-style avalanche hash good enough for benchmark keys.
func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
