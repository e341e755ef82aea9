// Package suvm implements Secure User-managed Virtual Memory — the core
// contribution of the Eleos paper (§3.2). SUVM is an additional level of
// virtual memory managed entirely inside the enclave: a page cache
// (EPC++) of pinned EPC pages, its own page tables (an inverse table
// mapping backing-store pages to EPC++ frames, and a crypto-metadata
// table holding the nonce and MAC of every sealed page), and an
// encrypted backing store in untrusted host memory. Accesses go through
// spointers, which perform software address translation and cache the
// translated frame so the page-table lookup happens once per page.
//
// A page fault — an access to a page not resident in EPC++ — is handled
// in software inside the enclave: no enclave exit, no TLB flush, no
// shootdown IPIs, no untrusted driver. Pages evicted to the backing
// store are AES-GCM sealed with a fresh nonce and verified (integrity +
// freshness) on the way back in, matching the guarantees of SGX's own
// EWB/ELDU paging.
//
// Trust domain: suvm is trusted enclave code, and it is the sanctioned
// facade through which trusted code reaches raw untrusted host memory —
// every crossing seals on the way out and verifies on the way in. It is
// also cycle-charged, so it must stay deterministic: virtual time only,
// seeded randomness only, no map-iteration-order dependence. These
// properties are enforced by eleoslint (see internal/lint).
//
//eleos:trusted
//eleos:facade
//eleos:deterministic
package suvm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/cycles"
	"eleos/internal/hostmem"
	"eleos/internal/seal"
	"eleos/internal/sgx"
)

// Allocation and configuration errors.
var (
	ErrOutOfRange  = errors.New("suvm: access outside allocation bounds")
	ErrBadConfig   = errors.New("suvm: invalid configuration")
	ErrCorrupt     = seal.ErrCorrupt
	ErrNotDirect   = errors.New("suvm: direct access on a page-cached allocation")
	ErrDoubleFree  = errors.New("suvm: free of unallocated spointer")
	ErrBackingFull = errors.New("suvm: backing store exhausted")
	// ErrFreed marks use of a spointer whose allocation was freed or
	// whose segment was detached; Free and Detach poison the spointer so
	// stale holders fail fast instead of touching recycled memory.
	ErrFreed = errors.New("suvm: use of a freed or detached allocation")
	// ErrSegmentBusy marks segment operations blocked by an active user:
	// attaching a segment that is mounted elsewhere, or detaching one
	// whose pages are still pinned by linked spointers.
	ErrSegmentBusy = errors.New("suvm: segment busy")
	// ErrCrossDomain marks an operation that crossed a service-domain
	// boundary: freeing an allocation owned by a different carved domain
	// (or by the root) than the one asked to free it.
	ErrCrossDomain = errors.New("suvm: allocation belongs to a different domain")
)

// EvictionPolicy selects victims in EPC++. Exposing it is one of the
// points of SUVM: the application controls the eviction policy (§3.2.4).
type EvictionPolicy int

// Available eviction policies.
const (
	PolicyClock EvictionPolicy = iota // second-chance clock (default)
	PolicyFIFO
	PolicyRandom
)

func (p EvictionPolicy) String() string {
	switch p {
	case PolicyClock:
		return "clock"
	case PolicyFIFO:
		return "fifo"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config tunes a SUVM heap. The paper's "low-level tuning interface for
// expert runtime developers" corresponds to the non-default fields.
type Config struct {
	// PageCacheBytes is the EPC++ capacity. Required. The paper's rule
	// of thumb: size it below the enclave's PRM share so EPC++ frames
	// are never evicted by the SGX driver (see Fig 9 for the failure
	// mode when this is violated).
	PageCacheBytes uint64

	// PageSize is the EPC++ page size (power of two, 512..64 KiB;
	// default 4096). Configured at heap creation, as in the paper.
	PageSize int

	// SubPageSize is the granularity of direct backing-store access
	// (default 1024, the paper's configuration). Must divide PageSize.
	SubPageSize int

	// BackingBytes sizes the encrypted backing store reserved in host
	// memory (default 4 GiB; storage materializes lazily).
	BackingBytes uint64

	// Policy selects the eviction policy (default PolicyClock).
	Policy EvictionPolicy

	// WriteBackClean disables the clean-page optimization, forcing
	// every evicted page to be re-sealed and written back the way SGX's
	// EWB must (ablation knob; default false = optimization on).
	WriteBackClean bool

	// RandomSeed seeds PolicyRandom (default 1).
	RandomSeed uint64
}

func (c *Config) fillDefaults() error {
	if c.PageCacheBytes == 0 {
		return fmt.Errorf("%w: PageCacheBytes is required", ErrBadConfig)
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PageSize < 512 || c.PageSize > 64<<10 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("%w: page size %d", ErrBadConfig, c.PageSize)
	}
	if c.SubPageSize == 0 {
		c.SubPageSize = 1024
		if c.SubPageSize > c.PageSize {
			c.SubPageSize = c.PageSize
		}
	}
	if c.SubPageSize <= 0 || c.PageSize%c.SubPageSize != 0 {
		return fmt.Errorf("%w: sub-page size %d does not divide page size %d", ErrBadConfig, c.SubPageSize, c.PageSize)
	}
	if c.BackingBytes == 0 {
		c.BackingBytes = 4 << 30
	}
	if c.BackingBytes&(c.BackingBytes-1) != 0 {
		return fmt.Errorf("%w: BackingBytes must be a power of two", ErrBadConfig)
	}
	if c.RandomSeed == 0 {
		c.RandomSeed = 1
	}
	return nil
}

// Heap is one SUVM instance, owned by one enclave. All methods taking a
// *sgx.Thread must be called with a thread of that enclave, inside the
// enclave. A Heap is safe for concurrent use by the enclave's threads.
type Heap struct {
	encl  *sgx.Enclave
	plat  *sgx.Platform
	model *cycles.Model
	seal  *seal.Sealer
	cfg   Config

	pageSize  uint64
	pageShift uint
	subSize   uint64
	subsPer   int

	// Backing store: one dedicated host-memory region split into a
	// page-cached half and a direct-access half, each with its own
	// buddy allocator so the two sealing granularities never share a
	// page (§3.2.4: the prototype cannot mix modes within a page).
	bsBase uint64
	bsSize uint64
	//eleos:lockorder 5
	allocMu    sync.Mutex
	cachedBS   *hostmem.Buddy
	directBS   *hostmem.Buddy
	allocs     map[uint64]allocInfo
	directBase uint64

	// EPC++: maxFrames pinned enclave pages, split into domains
	// (domain.go). root is domain 0: it starts out owning every frame,
	// and each carve takes frames off the top of its range.
	frameBase uint64
	frames    []frameMeta
	root      *Domain

	// The fault pipeline: faults on different pages proceed fully in
	// parallel. Each domain supplies frames from its own sharded pool
	// and selects victims under its own policy lock; inflight gives each
	// faulting or evicting page a single owner (same-page faulters wait
	// and coalesce onto the winner's frame). epoch is the resize epoch:
	// faults take it shared, ResizeTo/BalloonTick/NewDomain/Attach/Detach
	// take it exclusively, so capacity changes see a quiesced pipeline
	// without stalling faults the rest of the time. The linked data path
	// takes none of this.
	inflight *inflightTable
	//eleos:lockorder 10
	epoch sync.RWMutex

	resident *residentTable
	meta     *metaTable

	// Mounted inter-enclave segments (§8's proposed extension): each
	// occupies a range of pseudo backing-store page numbers above
	// segPageBase, resolved to its own host region and sealing key.
	//eleos:lockorder 12
	segMu    sync.Mutex
	segs     []*mountedSeg
	nextSegP uint64

	// Simulated in-EPC residence of the page tables: the inverse table
	// lives in a fixed enclave region touched on every lookup; the
	// crypto-metadata table grows with the backing store in chunked
	// enclave regions, so huge working sets push it out of PRM — the
	// effect that bends Fig 7a beyond 1 GiB.
	iptBase  uint64
	iptSlots uint64
	//eleos:lockorder 70
	metaMu   sync.Mutex
	metaBase map[uint64]uint64 // chunk index -> enclave vaddr

	scratch sync.Pool // page-size byte buffers

	// Every domain, root first then carve order. Mutated only under the
	// exclusive resize epoch; published atomically so lock-free readers
	// (stats) see a consistent snapshot.
	domains atomic.Pointer[[]*Domain]

	// lastBalloonErr is the message of the most recent refused
	// BalloonTick (see StatsSnapshot.LastBalloonErr); nil when no tick
	// has been refused since the last ResetStats.
	lastBalloonErr atomic.Pointer[string]
}

type allocInfo struct {
	size   uint64
	direct bool
	dom    *Domain // owning domain
}

// New creates a SUVM heap inside encl. setup must be a thread of the
// enclave, currently entered; it pays the (one-time) cost of
// materializing and pinning the EPC++ frame pool.
func New(encl *sgx.Enclave, setup *sgx.Thread, cfg Config) (*Heap, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if setup.Enclave() != encl {
		return nil, fmt.Errorf("%w: setup thread belongs to a different enclave", ErrBadConfig)
	}
	h := &Heap{
		encl:     encl,
		plat:     encl.Platform(),
		model:    encl.Platform().Model,
		cfg:      cfg,
		pageSize: uint64(cfg.PageSize),
		subSize:  uint64(cfg.SubPageSize),
		subsPer:  cfg.PageSize / cfg.SubPageSize,
		allocs:   make(map[uint64]allocInfo),
		metaBase: make(map[uint64]uint64),
		inflight: newInflightTable(),
		resident: newResidentTable(),
		meta:     newMetaTable(),
		nextSegP: segPageBase,
	}
	for s := uint64(cfg.PageSize); s > 1; s >>= 1 {
		h.pageShift++
	}

	var err error
	h.seal, err = seal.New(h.model)
	if err != nil {
		return nil, fmt.Errorf("suvm: creating sealer: %w", err)
	}

	// Backing store region, split in two halves.
	h.bsSize = cfg.BackingBytes
	h.bsBase = h.plat.AllocHost(h.bsSize)
	half := h.bsSize / 2
	h.cachedBS, err = hostmem.NewBuddy(h.bsBase, half)
	if err != nil {
		return nil, fmt.Errorf("suvm: backing store: %w", err)
	}
	h.directBase = h.bsBase + half
	h.directBS, err = hostmem.NewBuddy(h.directBase, half)
	if err != nil {
		return nil, fmt.Errorf("suvm: direct backing store: %w", err)
	}

	// EPC++ frame pool: pinned enclave pages.
	maxFrames := int(cfg.PageCacheBytes / h.pageSize)
	if maxFrames < 4 {
		return nil, fmt.Errorf("%w: page cache of %d bytes holds fewer than 4 pages", ErrBadConfig, cfg.PageCacheBytes)
	}
	poolPages := (uint64(maxFrames)*h.pageSize + 4095) / 4096
	if poolPages > uint64(h.plat.Driver.NumFrames()) {
		return nil, fmt.Errorf("%w: EPC++ of %d bytes needs %d EPC frames, PRM has %d",
			sgx.ErrOutOfEPC, cfg.PageCacheBytes, poolPages, h.plat.Driver.NumFrames())
	}
	h.frameBase = encl.AllocPages(poolPages)
	encl.Pin(setup, h.frameBase, uint64(maxFrames)*h.pageSize)
	h.root = &Domain{
		h:      h,
		name:   "root",
		count:  maxFrames,
		active: maxFrames,
		free:   newFramePool(0, maxFrames),
		ev:     newEvictor(cfg.Policy, cfg.RandomSeed),
	}
	h.domains.Store(&[]*Domain{h.root})
	h.frames = make([]frameMeta, maxFrames)
	for i := range h.frames {
		h.frames[i].bsPage.Store(noBSPage)
		h.frames[i].dom = h.root
	}

	// Inverse page table region: one entry per EPC++ frame, double
	// provisioned as a hash table (the paper pre-allocates it large).
	h.iptSlots = uint64(2 * maxFrames)
	h.iptBase = encl.Alloc(h.iptSlots * iptEntryBytes)

	h.scratch.New = func() any {
		b := make([]byte, cfg.PageSize+seal.Overhead)
		return &b
	}
	return h, nil
}

// noBSPage marks an unused frame.
const noBSPage = ^uint64(0)

// segPageBase is the first pseudo page number used for mounted
// segments; it is far above any page the heap's own 2^32-page backing
// region can produce, so the two ranges never collide.
const segPageBase = uint64(1) << 40

// frameMeta is the in-enclave descriptor of one EPC++ frame. refcnt is
// the paper's per-page reference count of linked spointers: frames with
// refcnt > 0 are pinned in EPC++ and skipped by eviction.
type frameMeta struct {
	// bsPage is written under the page's resident-table shard lock (or
	// the in-flight entry during a page-in) but read optimistically by
	// victim selection, hence atomic like refcnt.
	bsPage atomic.Uint64
	// refcnt is raised only under the bsPage's resident-table shard
	// lock (so check-then-evict stays atomic) but dropped by release
	// without it, and read optimistically by victim selection.
	refcnt   atomic.Int32
	accessed atomic.Bool // clock reference bit
	dirty    atomic.Bool // set by pin holders; consumed under the shard lock at eviction
	disabled bool        // removed from EPC++ by ballooning (under the exclusive resize epoch)
	// dom is the domain this frame belongs to. Written only under the
	// exclusive resize epoch (NewDomain), read by fault and eviction
	// paths holding the epoch shared.
	dom *Domain
}

// setFlag sets f unless it is already set: a load, not a locked
// exchange, on the common path. Skipping the store after loading true
// is the same as storing true at that load, so no outcome changes.
func setFlag(f *atomic.Bool) {
	if !f.Load() {
		f.Store(true)
	}
}

const iptEntryBytes = 16
const metaEntryBytes = 32

// metaChunkPages is the number of backing-store pages whose crypto
// metadata shares one enclave-memory chunk (128 Ki pages = 4 MiB of
// metadata per 512 MiB of backing store at 4 KiB pages).
const metaChunkPages = 1 << 17

// frameVaddr returns the enclave virtual address of frame f.
func (h *Heap) frameVaddr(f int32) uint64 { return h.frameBase + uint64(f)*h.pageSize }

// bsPageOf maps a backing-store address to its SUVM page number
// (relative to the heap's backing region, so numbering is dense).
func (h *Heap) bsPageOf(bsAddr uint64) uint64 { return (bsAddr - h.bsBase) >> h.pageShift }

// bsAddrOf is the inverse of bsPageOf for page-aligned addresses.
func (h *Heap) bsAddrOf(bsPage uint64) uint64 { return h.bsBase + (bsPage << h.pageShift) }

// PageSize returns the configured EPC++ page size.
func (h *Heap) PageSize() int { return int(h.pageSize) }

// SubPageSize returns the configured direct-access granularity.
func (h *Heap) SubPageSize() int { return int(h.subSize) }

// Enclave returns the owning enclave.
func (h *Heap) Enclave() *sgx.Enclave { return h.encl }

// Malloc allocates n bytes in the backing store and returns an unlinked
// spointer to it, as suvm_malloc does. The memory is demand-cached in
// EPC++ on first access.
func (h *Heap) Malloc(n uint64) (*SPtr, error) { return h.mallocFrom(n, h.root, false) }

// MallocDirect allocates n bytes accessed directly in the backing store
// at sub-page granularity, bypassing EPC++ (§3.2.4). Suited to small
// random accesses with no reuse.
func (h *Heap) MallocDirect(n uint64) (*SPtr, error) { return h.mallocFrom(n, h.root, true) }

// mallocFrom allocates on behalf of domain d, tagging the
// allocation and spointer with their owner and enforcing the domain's
// backing quota.
func (h *Heap) mallocFrom(n uint64, d *Domain, direct bool) (*SPtr, error) {
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-size allocation", ErrBadConfig)
	}
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	if d.quota != 0 && d.quotaUsed+n > d.quota {
		return nil, fmt.Errorf("%w: domain %q backing quota exceeded (%d of %d bytes in use)",
			ErrBackingFull, d.name, d.quotaUsed, d.quota)
	}
	bs := h.cachedBS
	if direct {
		bs = h.directBS
	}
	addr, err := bs.Alloc(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBackingFull, err)
	}
	h.allocs[addr] = allocInfo{size: n, direct: direct, dom: d}
	d.quotaUsed += n
	return &SPtr{h: h, base: addr, size: n, frame: -1, direct: direct, dom: d}, nil
}

// Free releases an allocation, unlinking the spointer first. Cached
// contents of pages shared with live allocations stay valid; the freed
// range may be recycled by a later Malloc with malloc(3) semantics
// (contents unspecified). Allocations made from a carved domain must be
// freed through that domain (ErrCrossDomain otherwise).
func (h *Heap) Free(th *sgx.Thread, p *SPtr) error { return h.freeFrom(th, p, h.root) }

// freeFrom releases an allocation on behalf of domain owner, refusing
// to free across domain boundaries.
func (h *Heap) freeFrom(th *sgx.Thread, p *SPtr, owner *Domain) error {
	if p.h == nil {
		return fmt.Errorf("%w: double free", ErrFreed)
	}
	if p.h != h {
		return fmt.Errorf("%w: spointer belongs to a different heap", ErrDoubleFree)
	}
	// Validate before mutating: the spointer must be a live allocation of
	// this heap before its link state is touched, so a bad Free (segment
	// spointer, interior pointer, cross-domain free) leaves the spointer
	// fully usable.
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	info, ok := h.allocs[p.base]
	if !ok {
		return ErrDoubleFree
	}
	if info.dom != owner {
		return fmt.Errorf("%w: owned by %q, freed via %q", ErrCrossDomain, info.dom.name, owner.name)
	}
	p.Unlink(th)
	delete(h.allocs, p.base)
	p.h = nil // poison: further use of the spointer fails with ErrFreed
	info.dom.quotaUsed -= info.size
	if info.direct {
		return h.directBS.Free(p.base)
	}
	return h.cachedBS.Free(p.base)
}

// Stats returns a snapshot of the heap's event counters. With carved
// domains the flat totals aggregate root + every domain, and Domains
// carries the per-domain breakdown.
func (h *Heap) Stats() StatsSnapshot {
	snap := h.root.stats.snapshot()
	if msg := h.lastBalloonErr.Load(); msg != nil {
		snap.LastBalloonErr = *msg
	}
	doms := h.domainList()[1:]
	if len(doms) == 0 {
		return snap
	}
	snap.Domains = make([]DomainStatsSnapshot, 0, len(doms))
	for _, d := range doms {
		ds := d.stats.snapshot()
		snap.add(&ds)
		snap.Domains = append(snap.Domains, DomainStatsSnapshot{Name: d.name, StatsSnapshot: ds})
	}
	return snap
}

// ResetStats zeroes the counters — root and every carved domain
// (benchmark warm-up boundary).
func (h *Heap) ResetStats() {
	h.lastBalloonErr.Store(nil)
	for _, d := range h.domainList() {
		d.stats.reset()
	}
}

// Quiesce waits for every in-flight fault and eviction to drain by
// cycling the resize epoch exclusively. Teardown hook: after Quiesce
// returns, no fault started before the call still holds heap state.
func (h *Heap) Quiesce() {
	h.epoch.Lock()
	defer h.epoch.Unlock()
}

// ActiveFrames reports the root domain's current EPC++ capacity in
// pages (the whole heap's when no domain is carved).
func (h *Heap) ActiveFrames() int { return h.root.ActiveFrames() }

func (h *Heap) getScratch() *[]byte  { return h.scratch.Get().(*[]byte) }
func (h *Heap) putScratch(b *[]byte) { h.scratch.Put(b) }
