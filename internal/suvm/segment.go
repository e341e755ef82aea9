package suvm

import (
	"fmt"
	"sync"

	"eleos/internal/seal"
	"eleos/internal/sgx"
)

// Segment is inter-enclave shared secure memory — the service the
// paper's conclusion proposes as an Eleos extension ("Eleos might be
// extended to provide new services, i.e., inter-enclave shared memory,
// which are not currently supported in SGX").
//
// A segment is a region of sealed pages in untrusted host memory with
// its own sealing key and its own crypto metadata, independent of any
// heap. Exactly one enclave's heap may have it mounted at a time;
// ownership moves by Detach on one heap and Attach on another, with no
// re-encryption of the data — only the (small) crypto metadata travels.
// The Segment handle stands in for the key exchange real enclaves would
// perform over a local-attestation channel; holding the handle is
// holding the key.
type Segment struct {
	//eleos:lockorder 2
	mu       sync.Mutex
	plat     *sgx.Platform
	sealer   *seal.Sealer
	size     uint64
	pageSize uint64
	bsBase   uint64
	meta     []pageMeta // travels with ownership; indexed by segment page
	mounted  bool
}

// NewSegment allocates a shared segment of size bytes, sealed at the
// given page size (which must match the page size of every heap that
// will mount it).
func NewSegment(plat *sgx.Platform, size uint64, pageSize int) (*Segment, error) {
	if pageSize < 512 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("%w: segment page size %d", ErrBadConfig, pageSize)
	}
	size = (size + uint64(pageSize) - 1) &^ (uint64(pageSize) - 1)
	if size == 0 {
		return nil, fmt.Errorf("%w: empty segment", ErrBadConfig)
	}
	sealer, err := seal.New(plat.Model)
	if err != nil {
		return nil, fmt.Errorf("suvm: segment sealer: %w", err)
	}
	return &Segment{
		plat:     plat,
		sealer:   sealer,
		size:     size,
		pageSize: uint64(pageSize),
		bsBase:   plat.AllocHost(size),
		meta:     make([]pageMeta, size/uint64(pageSize)),
	}, nil
}

// Size returns the segment length in bytes.
func (s *Segment) Size() uint64 { return s.size }

// mountedSeg records one attachment in a heap.
type mountedSeg struct {
	seg       *Segment
	firstPage uint64 // pseudo backing-store page number of segment page 0
	pages     uint64
}

// resolve maps a backing-store page number to the host address of its
// sealed bytes and the sealer that protects it: the heap's own region
// and key below segPageBase, a mounted segment's above.
func (h *Heap) resolve(bsPage uint64) (uint64, *seal.Sealer) {
	if bsPage < segPageBase {
		return h.bsAddrOf(bsPage), h.seal
	}
	h.segMu.Lock()
	defer h.segMu.Unlock()
	for _, m := range h.segs {
		if bsPage >= m.firstPage && bsPage < m.firstPage+m.pages {
			return m.seg.bsBase + (bsPage-m.firstPage)*h.pageSize, m.seg.sealer
		}
	}
	panic(fmt.Sprintf("suvm: backing page %#x resolves to no mounted segment", bsPage))
}

// Attach mounts the segment into the heap and returns a spointer over
// its contents. The segment's pages are demand-cached in EPC++ like any
// other SUVM memory; their sealed bytes stay where they are in host
// memory — attach moves only the nonce/MAC metadata into the enclave.
// Fails if the segment is mounted elsewhere (single-owner semantics) or
// if the page sizes disagree.
func (h *Heap) Attach(th *sgx.Thread, seg *Segment) (*SPtr, error) {
	if seg.pageSize != h.pageSize {
		return nil, fmt.Errorf("%w: segment page size %d != heap page size %d",
			ErrBadConfig, seg.pageSize, h.pageSize)
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.mounted {
		return nil, fmt.Errorf("%w: already mounted by another enclave", ErrSegmentBusy)
	}
	seg.mounted = true

	pages := seg.size / h.pageSize
	h.segMu.Lock()
	first := h.nextSegP
	h.nextSegP += pages
	h.segs = append(h.segs, &mountedSeg{seg: seg, firstPage: first, pages: pages})
	h.segMu.Unlock()

	// Import the travelling crypto metadata into the heap's tables.
	// Mounting is an exclusive phase of the fault pipeline, like resize:
	// no fault observes a half-imported segment.
	h.epoch.Lock()
	defer h.epoch.Unlock()
	for i := uint64(0); i < pages; i++ {
		if !seg.meta[i].present {
			continue
		}
		bsPage := first + i
		h.lockCost(th)
		h.touchMeta(th, bsPage, true)
		ms := h.meta.shard(bsPage)
		ms.mu.Lock()
		m := ms.get(bsPage, true)
		m.present = true
		m.nonce = seg.meta[i].nonce
		m.tag = seg.meta[i].tag
		ms.mu.Unlock()
	}

	// The spointer's base is a pseudo backing-store address chosen so
	// that ordinary spointer arithmetic lands on the segment's pseudo
	// page numbers.
	base := h.bsBase + (first << h.pageShift)
	return &SPtr{h: h, base: base, size: seg.size, frame: -1, dom: h.root}, nil
}

// Detach flushes every cached page of the mounted segment back to its
// sealed host region, exports the crypto metadata into the segment, and
// releases ownership so another enclave can Attach it. The spointer
// (and any clone of it) must not be used afterwards.
func (h *Heap) Detach(th *sgx.Thread, p *SPtr) error {
	p.Unlink(th)
	first := h.bsPageOf(p.base)
	h.segMu.Lock()
	var m *mountedSeg
	idx := -1
	for i, cand := range h.segs {
		if cand.firstPage == first {
			m, idx = cand, i
			break
		}
	}
	h.segMu.Unlock()
	if m == nil {
		return fmt.Errorf("suvm: spointer does not reference a mounted segment")
	}

	// Evict every cached page (dirty ones are re-sealed in place with
	// the segment's key), then export metadata. Unmounting is an
	// exclusive phase of the fault pipeline: in-flight faults drain
	// first, and none start until the segment is fully exported.
	h.epoch.Lock()
	for i := uint64(0); i < m.pages; i++ {
		bsPage := first + i
		sh := h.resident.shard(bsPage)
		sh.mu.Lock()
		f, cached := sh.m[bsPage]
		sh.mu.Unlock()
		if cached {
			ok, _ := h.evictFrame(th, f)
			if !ok {
				h.epoch.Unlock()
				return fmt.Errorf("%w: segment page %d is pinned by a linked spointer", ErrSegmentBusy, i)
			}
			h.root.free.put(f)
		}
	}
	h.epoch.Unlock()

	for i := uint64(0); i < m.pages; i++ {
		bsPage := first + i
		h.lockCost(th)
		h.touchMeta(th, bsPage, false)
		ms := h.meta.shard(bsPage)
		ms.mu.Lock()
		if e := ms.get(bsPage, false); e != nil {
			m.seg.meta[i] = *e
			delete(ms.m, bsPage)
		} else {
			m.seg.meta[i] = pageMeta{}
		}
		ms.mu.Unlock()
	}

	h.segMu.Lock()
	h.segs = append(h.segs[:idx], h.segs[idx+1:]...)
	h.segMu.Unlock()
	m.seg.mu.Lock()
	m.seg.mounted = false
	m.seg.mu.Unlock()
	p.h = nil // poison: further use fails fast
	return nil
}
