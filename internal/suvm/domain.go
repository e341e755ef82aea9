package suvm

import (
	"fmt"

	"eleos/internal/sgx"
)

// This file implements heap domains: an Occlum-style carve of one SUVM
// heap into isolated sub-heaps so several services can share a single
// enclave's EPC++ (PAPERS.md, arXiv 2001.07450). A Domain owns
// a contiguous range of the heap's pinned EPC++ frames, its own free
// pool and evictor over that range, and its own event counters; the
// backing store, resident/metadata tables, inverse page table and the
// whole sharded fault pipeline stay shared. Frames are domain-tagged, so
// a domain's faults can only consume — and its evictions only victimize
// — its own frames: one service thrashing its working set can never
// steal EPC++ from, or observe the paging behaviour of, a co-resident
// service. Allocation ownership is tagged too: freeing another domain's
// allocation fails with ErrCrossDomain.
//
// The root is domain 0, named "root": it starts out owning every frame
// and serves allocations made directly on the Heap. Each carve takes
// frames off the top of the root's active range, so carves stack
// downward and the root's range shrinks to the frames below them. A
// heap that never carves a domain is just its root.

// Allocator is the allocation surface shared by a whole Heap and a
// carved Domain, letting containers and servers be placed on either
// without caring which.
type Allocator interface {
	// Malloc allocates n page-cached bytes (see Heap.Malloc).
	Malloc(n uint64) (*SPtr, error)
	// MallocDirect allocates n direct-access bytes (see Heap.MallocDirect).
	MallocDirect(n uint64) (*SPtr, error)
	// Free releases an allocation made by this allocator.
	Free(th *sgx.Thread, p *SPtr) error
}

var (
	_ Allocator = (*Heap)(nil)
	_ Allocator = (*Domain)(nil)
)

// DomainConfig configures one carved domain.
type DomainConfig struct {
	// Name identifies the domain in stats and errors. Required, unique
	// within the heap; "root" is taken by the heap's own domain.
	Name string

	// EPCBytes is the domain's EPC++ share, carved out of the root's
	// currently active frames. Required; the root must keep at least 4
	// frames.
	EPCBytes uint64

	// BackingQuota caps the domain's total backing-store allocation in
	// bytes (0 = unlimited). The shared backing store is cheap untrusted
	// host memory, so the quota is a fairness knob, not a PRM one.
	BackingQuota uint64

	// Policy selects the domain's eviction policy (default PolicyClock);
	// per-domain policies are the per-service half of §3.2.4's
	// application-controlled eviction.
	Policy EvictionPolicy

	// RandomSeed seeds PolicyRandom (default 1).
	RandomSeed uint64
}

// Domain is one sub-heap: the root or a carve. Safe for concurrent use
// by the enclave's threads, like the Heap itself.
type Domain struct {
	h      *Heap
	name   string
	start  int // first frame index of the domain's range
	count  int // frames in the range; the root's shrinks when a domain is carved
	active int // enabled frames in [start, start+active); ≤ count, shrunk by ballooning (under the exclusive resize epoch)

	free *framePool // free frames of the range
	ev   evictor    // victim selection within the range

	quota     uint64 // backing-store byte cap; 0 = unlimited
	quotaUsed uint64 // guarded by h.allocMu

	stats Stats
}

// NewDomain carves cfg.EPCBytes of EPC++ off the top of the root's
// active frames into a new isolated domain. The carve is an exclusive
// phase of the fault pipeline (like ResizeTo): it waits for in-flight
// faults to drain, evicts whatever the vacated frames hold back to the
// shared backing store, and fails if any of them is pinned by a linked
// spointer, handing the frames it already emptied back to the root's
// pool. th must be an entered thread of the heap's enclave.
func (h *Heap) NewDomain(th *sgx.Thread, cfg DomainConfig) (*Domain, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: domain name is required", ErrBadConfig)
	}
	if cfg.EPCBytes == 0 {
		return nil, fmt.Errorf("%w: domain EPCBytes is required", ErrBadConfig)
	}
	count := int(cfg.EPCBytes / h.pageSize)
	if count < 1 {
		return nil, fmt.Errorf("%w: domain EPC++ of %d bytes holds no %d-byte pages", ErrBadConfig, cfg.EPCBytes, h.pageSize)
	}
	seed := cfg.RandomSeed
	if seed == 0 {
		seed = 1
	}

	h.epoch.Lock()
	defer h.epoch.Unlock()
	for _, d := range h.domainList() {
		if d.name == cfg.Name {
			return nil, fmt.Errorf("%w: domain %q already exists", ErrBadConfig, cfg.Name)
		}
	}
	root := h.root
	newActive := root.active - count
	if newActive < 4 {
		return nil, fmt.Errorf("suvm: carving %d frames for domain %q would leave the root domain %d (minimum 4): %w",
			count, cfg.Name, newActive, sgx.ErrOutOfEPC)
	}
	// Vacate the top of the root's range, bottom up. The evictions happen
	// under the exclusive epoch, so they race nothing; their write-backs
	// are charged to the root (the carve is root work, like a shrink).
	var emptied []int32
	for f := newActive; f < root.active; f++ {
		if h.frames[f].bsPage.Load() == noBSPage {
			continue
		}
		if ok, _ := h.evictFrame(th, int32(f)); !ok {
			for _, e := range emptied {
				root.free.put(e)
			}
			return nil, fmt.Errorf("suvm: cannot carve domain %q: frame %d is pinned by a linked spointer", cfg.Name, f)
		}
		emptied = append(emptied, int32(f))
	}
	d := &Domain{
		h:      h,
		name:   cfg.Name,
		start:  newActive,
		count:  count,
		active: count,
		free:   newFramePool(newActive, count),
		ev:     newEvictor(cfg.Policy, seed),
		quota:  cfg.BackingQuota,
	}
	// Drop the carved frames from the root's free pools and tag them.
	root.free.filter(func(f int32) bool { return int(f) < newActive })
	for f := newActive; f < newActive+count; f++ {
		h.frames[f].dom = d
	}
	root.count, root.active = newActive, newActive
	doms := append(append([]*Domain(nil), h.domainList()...), d)
	h.domains.Store(&doms)
	return d, nil
}

// domainList returns every domain, root first then carve order
// (append-only; published atomically so stats readers need no lock).
func (h *Heap) domainList() []*Domain { return *h.domains.Load() }

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Heap returns the heap the domain was carved from.
func (d *Domain) Heap() *Heap { return d.h }

// EPCFrames reports the domain's EPC++ capacity in pages.
func (d *Domain) EPCFrames() int { return d.count }

// ActiveFrames reports the domain's currently enabled EPC++ frames
// (≤ EPCFrames; ballooning shrinks and regrows it proportionally).
func (d *Domain) ActiveFrames() int {
	d.h.epoch.RLock()
	defer d.h.epoch.RUnlock()
	return d.active
}

// Malloc allocates n bytes of the shared backing store, demand-cached
// in the domain's own EPC++ frames. See Heap.Malloc.
func (d *Domain) Malloc(n uint64) (*SPtr, error) { return d.h.mallocFrom(n, d, false) }

// MallocDirect allocates n direct-access bytes owned by the domain.
// See Heap.MallocDirect.
func (d *Domain) MallocDirect(n uint64) (*SPtr, error) { return d.h.mallocFrom(n, d, true) }

// Free releases an allocation made from this domain. Freeing another
// domain's allocation fails with ErrCrossDomain.
func (d *Domain) Free(th *sgx.Thread, p *SPtr) error { return d.h.freeFrom(th, p, d) }

// Stats returns a snapshot of the domain's own event counters.
func (d *Domain) Stats() StatsSnapshot { return d.stats.snapshot() }

// ResetStats zeroes the domain's counters (benchmark warm-up boundary).
func (d *Domain) ResetStats() { d.stats.reset() }
