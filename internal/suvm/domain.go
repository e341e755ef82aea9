package suvm

import (
	"fmt"

	"eleos/internal/phys"
	"eleos/internal/sgx"
)

// This file implements per-service heap domains: an Occlum-style carve
// of one SUVM heap into isolated sub-heaps so several services can share
// a single enclave's EPC++ (PAPERS.md, arXiv 2001.07450). A Domain owns
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
// The heap's own pool/evictor keep serving allocations made directly on
// the Heap (the "root domain", dom == nil everywhere); a heap that never
// carves a domain behaves bit-identically to the pre-domain code.

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
	// within the heap.
	Name string

	// EPCBytes is the domain's EPC++ share, carved out of the heap's
	// currently active frames. Required; the root domain must keep at
	// least 4 frames.
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

// Domain is one carved sub-heap. Safe for concurrent use by the
// enclave's threads, like the Heap itself.
type Domain struct {
	h      *Heap
	name   string
	start  int // first frame index of the carved range
	count  int // number of carved frames
	active int // enabled frames in [start, start+active); ≤ count, shrunk by ballooning (under the exclusive resize epoch)

	free *framePool // free frames of the carved range
	ev   evictor    // victim selection within the carved range

	quota     uint64 // backing-store byte cap; 0 = unlimited
	quotaUsed uint64 // guarded by h.allocMu

	stats Stats
}

// NewDomain carves cfg.EPCBytes of EPC++ out of the heap's active
// frames into a new isolated domain. The carve is an exclusive phase of
// the fault pipeline (like ResizeTo): it waits for in-flight faults to
// drain, evicts whatever the vacated frames hold back to the shared
// backing store, and fails if any of them is pinned by a linked
// spointer. th must be an entered thread of the heap's enclave.
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
	newActive := h.activeFrames - count
	if newActive < 4 {
		return nil, fmt.Errorf("suvm: carving %d frames for domain %q would leave the root domain %d (minimum 4): %w",
			count, cfg.Name, newActive, sgx.ErrOutOfEPC)
	}
	// Vacate the top of the root's range. The evictions happen under the
	// exclusive epoch, so they race nothing; their write-backs are
	// charged to the root (the carve is root work, like a shrink).
	for f := newActive; f < h.activeFrames; f++ {
		if h.frames[f].bsPage.Load() != noBSPage {
			ok, _ := h.evictFrame(th, int32(f))
			if !ok {
				return nil, fmt.Errorf("suvm: cannot carve domain %q: frame %d is pinned by a linked spointer", cfg.Name, f)
			}
		}
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
	h.free.filter(func(f int32) bool { return int(f) < newActive })
	for f := newActive; f < newActive+count; f++ {
		h.frames[f].dom = d
	}
	h.activeFrames = newActive
	doms := append(append([]*Domain(nil), h.domainList()...), d)
	h.domains.Store(&doms)
	return d, nil
}

// domainList returns the current carved domains (append-only; published
// atomically so stats readers need no lock).
func (h *Heap) domainList() []*Domain {
	if p := h.domains.Load(); p != nil {
		return *p
	}
	return nil
}

// domainRange returns the frame range victim selection may scan for
// domain d (nil = the root domain). A ballooned-down domain exposes
// only its active prefix, so evictors never sweep disabled frames.
func (h *Heap) domainRange(d *Domain) (start, active int) {
	if d == nil {
		return 0, h.activeFrames
	}
	return d.start, d.active
}

// domStats returns the event counters accesses on behalf of domain d
// are attributed to (nil = the root domain).
func (h *Heap) domStats(d *Domain) *Stats {
	if d == nil {
		return &h.stats
	}
	return &d.stats
}

// domName names a domain for error messages.
func domName(d *Domain) string {
	if d == nil {
		return "root"
	}
	return d.name
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Heap returns the heap the domain was carved from.
func (d *Domain) Heap() *Heap { return d.h }

// EPCFrames reports the domain's carved EPC++ capacity in pages.
func (d *Domain) EPCFrames() int { return d.count }

// ActiveFrames reports the domain's currently enabled EPC++ frames
// (≤ EPCFrames; ballooning shrinks and regrows it proportionally).
func (d *Domain) ActiveFrames() int {
	d.h.epoch.RLock()
	defer d.h.epoch.RUnlock()
	return d.active
}

// resizeUnit is one proportionally balloonable carve of the heap's
// frame array: the root prefix or one domain. base..base+cap is the
// unit's fixed frame range; active its enabled prefix.
type resizeUnit struct {
	d      *Domain // nil for the root
	base   int
	cap    int
	active int
	floor  int
	pool   *framePool
}

// resizeDomainsLocked balloons a heap with carved domains: target is
// the TOTAL active frame count (root + every domain) and each unit is
// scaled proportionally to its current size, clamped to [floor, carve
// capacity]. Leftover frames from the integer division are placed one
// at a time in fixed order — root first, then domains in carve order —
// so the split is deterministic. Shrinks run before grows so vacated
// EPC pages return to the driver before new ones are pinned. Called
// with the exclusive resize epoch held.
//
// A pinned frame aborts the resize mid-way with the completed units
// already applied — the same best-effort contract as shrinkLocked; the
// next balloon tick retries from the new geometry.
func (h *Heap) resizeDomainsLocked(th *sgx.Thread, target int, doms []*Domain) error {
	units := make([]*resizeUnit, 0, 1+len(doms))
	// The root's growable ceiling is the bottom of the lowest carve
	// (carves stack downward from the top of the then-active range).
	rootCap := len(h.frames)
	for _, d := range doms {
		if d.start < rootCap {
			rootCap = d.start
		}
	}
	units = append(units, &resizeUnit{base: 0, cap: rootCap, active: h.activeFrames, floor: 4, pool: h.free})
	for _, d := range doms {
		floor := 4
		if d.count < floor {
			floor = d.count
		}
		units = append(units, &resizeUnit{d: d, base: d.start, cap: d.count, active: d.active, floor: floor, pool: d.free})
	}
	total, floorSum, capSum := 0, 0, 0
	for _, u := range units {
		total += u.active
		floorSum += u.floor
		capSum += u.cap
	}
	if target < floorSum {
		target = floorSum
	}
	if target > capSum {
		target = capSum
	}
	if target == total {
		return nil
	}
	h.stats.resizes.Add(1)

	// Proportional split by current size, clamped per unit.
	want := make([]int, len(units))
	assigned := 0
	for i, u := range units {
		w := int(int64(target) * int64(u.active) / int64(total))
		if w < u.floor {
			w = u.floor
		}
		if w > u.cap {
			w = u.cap
		}
		want[i] = w
		assigned += w
	}
	// Distribute the remainder one frame at a time in fixed unit order.
	// target ∈ [floorSum, capSum] guarantees the loop drains.
	for rem := target - assigned; rem != 0; {
		for i, u := range units {
			if rem > 0 && want[i] < u.cap {
				want[i]++
				rem--
			} else if rem < 0 && want[i] > u.floor {
				want[i]--
				rem++
			}
			if rem == 0 {
				break
			}
		}
	}

	// Shrinks first (frames back to the driver), then grows.
	for i, u := range units {
		if want[i] < u.active {
			if err := h.shrinkUnitLocked(th, u, want[i]); err != nil {
				return err
			}
		}
	}
	for i, u := range units {
		if want[i] > u.active {
			h.growUnitLocked(th, u, want[i])
		}
	}
	return nil
}

// pinnedEdge is the 4 KiB-aligned boundary between a unit's pinned
// prefix and its released suffix when its first a frames are active:
// whole EPC pages at or above it (and fully inside the unit) are
// released. Aligning up keeps any page shared with an active frame
// pinned.
func (h *Heap) pinnedEdge(u *resizeUnit, a int) uint64 {
	off := uint64(u.base+a) * h.pageSize
	return (off + phys.PageSize - 1) &^ (phys.PageSize - 1)
}

// unitCeil is the highest byte a unit may release or pin: the last 4 KiB
// boundary fully inside its carve (a tail page shared with the next
// unit's frames stays pinned permanently).
func (h *Heap) unitCeil(u *resizeUnit) uint64 {
	return (uint64(u.base+u.cap) * h.pageSize) &^ (phys.PageSize - 1)
}

// shrinkUnitLocked vacates one unit's top frames down to newActive:
// evict contents (write-back if dirty, charged to th), disable the
// frames, drop them from the unit's pool and return the fully vacated
// EPC pages to the driver. Called with the exclusive epoch held.
func (h *Heap) shrinkUnitLocked(th *sgx.Thread, u *resizeUnit, newActive int) error {
	if f, ok := h.vacateLocked(th, u.pool, u.base+newActive, u.base+u.active); !ok {
		return fmt.Errorf("suvm: cannot shrink %s EPC++ to %d frames: frame %d is pinned by a linked spointer",
			domName(u.d), newActive, f)
	}
	lo := h.pinnedEdge(u, newActive)
	hi := h.pinnedEdge(u, u.active)
	if ceil := h.unitCeil(u); hi > ceil {
		hi = ceil
	}
	if hi > lo {
		h.encl.FreePages(h.frameBase+lo, hi-lo)
	}
	h.setUnitActive(u, newActive)
	return nil
}

// growUnitLocked re-enables one unit's frames up to newActive,
// re-pinning the underlying EPC pages (charged to th) and returning the
// frames to the unit's pool. Called with the exclusive epoch held.
func (h *Heap) growUnitLocked(th *sgx.Thread, u *resizeUnit, newActive int) {
	lo := h.pinnedEdge(u, u.active)
	hi := h.pinnedEdge(u, newActive)
	if ceil := h.unitCeil(u); hi > ceil {
		hi = ceil
	}
	if hi > lo {
		h.encl.Pin(th, h.frameBase+lo, hi-lo)
	}
	for f := u.base + newActive - 1; f >= u.base+u.active; f-- {
		h.frames[f].disabled = false
		h.frames[f].bsPage.Store(noBSPage)
		u.pool.put(int32(f))
	}
	h.setUnitActive(u, newActive)
}

// setUnitActive records a unit's new active count on its owner.
func (h *Heap) setUnitActive(u *resizeUnit, a int) {
	u.active = a
	if u.d == nil {
		h.activeFrames = a
	} else {
		u.d.active = a
	}
}

// Malloc allocates n bytes of the shared backing store, demand-cached
// in the domain's own EPC++ frames. See Heap.Malloc.
func (d *Domain) Malloc(n uint64) (*SPtr, error) { return d.h.mallocFrom(n, d, false) }

// MallocDirect allocates n direct-access bytes owned by the domain.
// See Heap.MallocDirect.
func (d *Domain) MallocDirect(n uint64) (*SPtr, error) { return d.h.mallocFrom(n, d, true) }

// Free releases an allocation made from this domain. Freeing another
// domain's (or the root's) allocation fails with ErrCrossDomain.
func (d *Domain) Free(th *sgx.Thread, p *SPtr) error { return d.h.freeFrom(th, p, d) }

// Stats returns a snapshot of the domain's own event counters.
func (d *Domain) Stats() StatsSnapshot { return d.stats.snapshot() }

// ResetStats zeroes the domain's counters (benchmark warm-up boundary).
func (d *Domain) ResetStats() { d.stats.reset() }
