package sgx

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/phys"
	"eleos/internal/seal"
)

// HeapBase is the virtual address where every enclave's private heap
// starts. Addresses at or above HeapBase are enclave-private; addresses
// below it are untrusted host memory, which enclave code may access
// directly (an SGX enclave can read its owner process's memory).
const HeapBase uint64 = 0x7000_0000_0000

type pageState uint8

const (
	pageAbsent   pageState = iota // never materialized (reads as zero)
	pageResident                  // backed by a PRM frame
	pageEvicted                   // sealed blob in untrusted memory
)

// page is one enclave-private page table entry.
type page struct {
	state    pageState
	pinned   bool
	frame    int32
	blobAddr uint64
	nonce    seal.Nonce
	tag      [seal.TagSize]byte
	// accessed (the clock reference bit) and dirty are set by accesses
	// under pagingMu's read lock and cleared only under its write lock.
	accessed atomic.Bool
	dirty    atomic.Bool
}

// setFlag sets f unless it is already set: a load, not a locked
// exchange, on the common path.
func setFlag(f *atomic.Bool) {
	if !f.Load() {
		f.Store(true)
	}
}

// EnclaveStats counts per-enclave events. All counters are atomic so
// they can be bumped from fault paths without extra locking.
type EnclaveStats struct {
	Exits     atomic.Uint64 // synchronous exits (OCALLs and fault AEXes)
	OCalls    atomic.Uint64
	Faults    atomic.Uint64
	Evictions atomic.Uint64
	IPIs      atomic.Uint64 // shootdown IPIs received by this enclave's cores
}

func (s *EnclaveStats) bumpFaults()    { s.Faults.Add(1) }
func (s *EnclaveStats) bumpEvictions() { s.Evictions.Add(1) }
func (s *EnclaveStats) bumpIPIs()      { s.IPIs.Add(1) }

// Snapshot returns a plain-value copy of the counters.
func (s *EnclaveStats) Snapshot() (exits, ocalls, faults, evictions, ipis uint64) {
	return s.Exits.Load(), s.OCalls.Load(), s.Faults.Load(), s.Evictions.Load(), s.IPIs.Load()
}

// Enclave is one simulated SGX enclave: a private demand-paged heap in
// the EPC plus the threads entering it. Its memory contents are real
// bytes; pages evicted under PRM pressure are really sealed into the
// host arena and verified on the way back.
type Enclave struct {
	id   int
	plat *Platform

	// pagingMu protects pages/resident/heap bookkeeping. Data-path
	// accesses to resident pages hold it for reading; paging operations
	// hold it for writing. Never acquire Driver.mu while holding it.
	//
	//eleos:lockorder 120
	pagingMu  sync.RWMutex
	pages     []page
	resident  []uint32 // page indices with state==pageResident (clock ring)
	clockHand int

	allocNext uint64 // bump pointer for Alloc, relative to HeapBase

	//eleos:lockorder 130
	threadMu sync.Mutex
	threads  []*Thread

	sealer *seal.Sealer
	stats  EnclaveStats
}

// NewEnclave creates an enclave on the platform. Creation itself is not
// charged (the paper never measures enclave build time).
func (p *Platform) NewEnclave() (*Enclave, error) {
	s, err := seal.New(p.Model)
	if err != nil {
		return nil, fmt.Errorf("sgx: creating enclave sealer: %w", err)
	}
	e := &Enclave{
		id:     int(p.nextEncl.Add(1)),
		plat:   p,
		sealer: s,
	}
	p.Driver.register(e)
	return e, nil
}

// ID returns the enclave's identifier.
func (e *Enclave) ID() int { return e.id }

// Platform returns the machine the enclave runs on.
func (e *Enclave) Platform() *Platform { return e.plat }

// Stats exposes the per-enclave event counters.
func (e *Enclave) Stats() *EnclaveStats { return &e.stats }

// Destroy tears the enclave down and returns its PRM frames.
func (e *Enclave) Destroy() { e.plat.Driver.unregister(e) }

// Alloc reserves n bytes of enclave-private heap (16-byte aligned) and
// returns the virtual address. Pages materialize on first touch.
func (e *Enclave) Alloc(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	e.pagingMu.Lock()
	defer e.pagingMu.Unlock()
	addr := HeapBase + e.allocNext
	e.allocNext += (n + 15) &^ 15
	e.growLocked(phys.PageNum(HeapBase+e.allocNext-1) - phys.PageNum(HeapBase) + 1)
	return addr
}

// AllocPages reserves n whole pages and returns their base address.
func (e *Enclave) AllocPages(n uint64) uint64 {
	e.pagingMu.Lock()
	defer e.pagingMu.Unlock()
	e.allocNext = phys.PageCeil(e.allocNext)
	addr := HeapBase + e.allocNext
	e.allocNext += n * phys.PageSize
	e.growLocked(phys.PageNum(addr-HeapBase) + n)
	return addr
}

func (e *Enclave) growLocked(pageCount uint64) {
	for uint64(len(e.pages)) < pageCount {
		e.pages = append(e.pages, page{frame: -1})
	}
}

// pageIndex maps an enclave virtual address to its heap page index.
func (e *Enclave) pageIndex(vaddr uint64) uint64 {
	return phys.PageNum(vaddr - HeapBase)
}

// Pin marks the page range [vaddr, vaddr+n) as pinned and materializes
// it, so the driver's first-pass clock sweep will not evict it. SUVM
// uses pinned ranges for its EPC++ page cache; pinning is effective only
// while the enclave stays within its PRM share (Fig 9 shows what happens
// otherwise).
func (e *Enclave) Pin(th *Thread, vaddr, n uint64) {
	first := e.pageIndex(vaddr)
	last := e.pageIndex(vaddr + n - 1)
	for i := first; i <= last; i++ {
		// Touch to materialize, then flag.
		th.ensureResident(e, i, false)
		e.pagingMu.Lock()
		e.pages[i].pinned = true
		e.pagingMu.Unlock()
	}
}

// FreePages releases whole pages back to the driver (their next touch
// reads as zero). SUVM's swapper uses this to deflate EPC++ when the
// driver reports PRM pressure.
func (e *Enclave) FreePages(vaddr, n uint64) {
	first := e.pageIndex(vaddr)
	e.plat.Driver.mu.Lock()
	e.pagingMu.Lock()
	e.plat.Driver.freePagesLocked(e, first, n/phys.PageSize)
	e.pagingMu.Unlock()
	e.plat.Driver.mu.Unlock()
}

// residentCount returns the number of PRM frames the enclave holds. The
// resident slice is only mutated with Driver.mu held, which callers of
// this method also hold.
func (e *Enclave) residentCount() int { return len(e.resident) }

// ResidentPages reports the enclave's current PRM frame count for tests
// and the harness.
func (e *Enclave) ResidentPages() int {
	e.plat.Driver.mu.Lock()
	defer e.plat.Driver.mu.Unlock()
	n := 0
	for _, idx := range e.resident {
		if e.pages[idx].state == pageResident {
			n++
		}
	}
	return n
}

// pageAAD binds a sealed page blob to its enclave and page index so
// blobs cannot be swapped between locations by the untrusted OS.
func (e *Enclave) pageAAD(idx uint64) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(e.id))
	binary.LittleEndian.PutUint64(b[8:], idx)
	return b[:]
}

// CorruptBackingPage deliberately flips a bit in the sealed blob of an
// evicted page. Test hook proving that integrity protection is real.
func (e *Enclave) CorruptBackingPage(vaddr uint64) error {
	e.pagingMu.Lock()
	defer e.pagingMu.Unlock()
	p := &e.pages[e.pageIndex(vaddr)]
	if p.state != pageEvicted {
		return fmt.Errorf("sgx: page at %#x is not evicted", vaddr)
	}
	var b [1]byte
	e.plat.Host.ReadAt(p.blobAddr, b[:])
	b[0] ^= 1
	e.plat.Host.WriteAt(p.blobAddr, b[:])
	return nil
}
