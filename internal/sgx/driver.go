package sgx

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"

	"eleos/internal/phys"
	"eleos/internal/seal"
)

// DriverStats counts the driver-visible paging events. IPIs counts
// individual interrupts delivered to cores (the unit Table 2 of the
// paper reports), not shootdown rounds.
type DriverStats struct {
	Faults         uint64 // EPC page faults handled (incl. demand-zero)
	DemandZero     uint64 // faults that materialized a never-touched page
	PageIns        uint64 // ELDU: pages decrypted back from host memory
	Evictions      uint64 // EWB: pages sealed out to host memory
	IPIs           uint64 // shootdown IPIs delivered
	Rounds         uint64 // background reclaim rounds
	QueuedCycles   uint64 // virtual cycles faults spent queued on the driver
	ContendedFault uint64 // faults that found the driver busy
	ShareUpdates   uint64 // SetEPCShares ioctls installing a share table
}

// Driver simulates the (untrusted) Linux SGX kernel driver: it owns the
// pool of usable PRM frames, splits it among enclaves, services EPC page
// faults, and reclaims frames with a batched background swapper whose
// evictions trigger TLB-shootdown IPIs on the cores currently running
// the victim enclave. It also implements the Eleos extension: an ioctl
// reporting the PRM share available to an enclave (§3.3), which the
// untrusted runtime uses to balloon SUVM page caches.
type Driver struct {
	plat *Platform
	// frames backs every usable PRM frame with real storage.
	frames []byte

	//eleos:lockorder 110
	mu         sync.Mutex
	freeFrames []int32
	// written marks the frames that may hold non-zero bytes: set when a
	// frame is released from a dirty page or loaded by ELDU, dropped
	// when a demand-zero fault clears it. A frame never written keeps
	// the zeros it was allocated with, so the host never touches it.
	written    []bool
	enclaves   map[int]*Enclave
	evictBatch int
	stats      DriverStats
	// eldu holds the sealed blob of the page an ELDU is loading.
	eldu [phys.PageSize + seal.Overhead]byte

	// shares is the pluggable PRM share table (SetEPCShares): enclave id
	// to share in bytes. Empty means the legacy policy — usable PRM split
	// evenly among active enclaves — which quotaFramesLocked reproduces
	// bit-for-bit. Enclaves absent from a non-empty table split whatever
	// the listed shares leave over.
	shares map[int]uint64

	// busyUntil serializes fault handling in *virtual* time: the driver
	// is one kernel-side resource, so concurrent faults from different
	// cores queue behind each other (the reason multi-threaded EPC
	// paging scales poorly in the paper's Fig 7b/10/11 baselines).
	// Meaningful whenever the participating threads' virtual clocks
	// share an epoch, which every benchmark establishes by resetting
	// all thread counters and the driver together.
	busyUntil uint64
}

func newDriver(p *Platform, numFrames, evictBatch int) *Driver {
	d := &Driver{
		plat:       p,
		frames:     make([]byte, numFrames*phys.PageSize),
		freeFrames: make([]int32, 0, numFrames),
		written:    make([]bool, numFrames),
		enclaves:   make(map[int]*Enclave),
		evictBatch: evictBatch,
	}
	for i := numFrames - 1; i >= 0; i-- {
		d.freeFrames = append(d.freeFrames, int32(i))
	}
	return d
}

// frameData returns the storage of one PRM frame.
func (d *Driver) frameData(frame int32) []byte {
	off := int(frame) * phys.PageSize
	return d.frames[off : off+phys.PageSize]
}

// NumFrames returns the usable PRM size in frames.
func (d *Driver) NumFrames() int { return len(d.frames) / phys.PageSize }

// AvailableEPCBytes is the Eleos driver ioctl (§4.1) for a caller with
// no enclave identity: it reports the PRM share of an enclave not
// listed in the share table. With the default (empty) table that is the
// driver's classic heuristic — usable PRM split evenly among active
// enclaves. Callers that know their enclave should prefer
// AvailableEPCBytesFor, which honors SetEPCShares entries.
func (d *Driver) AvailableEPCBytes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint64(d.unlistedQuotaLocked()) * phys.PageSize
}

// AvailableEPCBytesFor is the per-enclave form of the ioctl: the PRM
// share of enclave id under the current share table (the even split
// when no table is set). The query itself charges no cycles — like
// AvailableEPCBytes, it models a cheap untrusted read the runtime's
// swapper performs outside the enclave.
func (d *Driver) AvailableEPCBytesFor(id int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint64(d.quotaFramesLocked(id)) * phys.PageSize
}

// SetEPCShares installs a PRM share table: enclave id to share in
// bytes (rounded down to whole frames). This is the Eleos extension's
// second ioctl, issued by the untrusted runtime's fleet controller;
// the driver itself stays policy-free and simply arbitrates against
// the table — AvailableEPCBytesFor reports the listed share, and the
// reclaim victim is scored by overage against it. Enclaves absent
// from the table split the unlisted remainder evenly; passing a nil
// or empty map restores the default even split exactly. The map is
// copied; entries for ids with no live enclave are ignored until an
// enclave with that id appears.
func (d *Driver) SetEPCShares(shares map[int]uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(shares) == 0 {
		d.shares = nil
		return
	}
	t := make(map[int]uint64, len(shares))
	maps.Copy(t, shares)
	d.shares = t
	d.stats.ShareUpdates++
}

// EPCShares returns a copy of the installed share table (nil under the
// default even-split policy).
func (d *Driver) EPCShares() map[int]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.shares == nil {
		return nil
	}
	t := make(map[int]uint64, len(d.shares))
	maps.Copy(t, d.shares)
	return t
}

// Stats returns a snapshot of the driver counters.
func (d *Driver) Stats() DriverStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the driver counters and the virtual-time queue
// (benchmark warm-up boundary; reset thread clocks at the same point).
func (d *Driver) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = DriverStats{}
	d.busyUntil = 0
}

func (d *Driver) enclaveCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.enclaves)
}

func (d *Driver) register(e *Enclave) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.enclaves[e.id] = e
}

// unregister tears an enclave down, returning its frames to the pool.
func (d *Driver) unregister(e *Enclave) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.enclaves, e.id)
	e.pagingMu.Lock()
	for i := range e.pages {
		p := &e.pages[i]
		if p.state == pageResident {
			d.release(p)
		}
		p.state = pageAbsent
	}
	e.pagingMu.Unlock()
}

// quotaFramesLocked is the PRM share of enclave id in frames under the
// current share table: the table entry when id is listed, an even cut
// of the unlisted remainder otherwise (which, with no table at all, is
// the classic even split). Must be called with d.mu held.
func (d *Driver) quotaFramesLocked(id int) int {
	if b, ok := d.shares[id]; ok {
		q := int(b / phys.PageSize)
		if q > d.NumFrames() {
			q = d.NumFrames()
		}
		return q
	}
	return d.unlistedQuotaLocked()
}

// unlistedQuotaLocked is the frame share of an enclave with no entry in
// the share table: the frames the listed shares leave over, split
// evenly among the unlisted enclaves. With an empty table every enclave
// is unlisted and this is exactly the historical NumFrames/n even
// split. Must be called with d.mu held.
func (d *Driver) unlistedQuotaLocked() int {
	n := len(d.enclaves)
	if n == 0 {
		n = 1
	}
	if len(d.shares) == 0 {
		return d.NumFrames() / n
	}
	// Walk live enclaves by sorted id: the sums are commutative, but the
	// sorted walk keeps this symmetric with victim selection and trivially
	// order-insensitive for the determinism checker.
	ids := make([]int, 0, len(d.enclaves))
	for id := range d.enclaves {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	listed, listedFrames := 0, 0
	for _, id := range ids {
		if b, ok := d.shares[id]; ok {
			listed++
			listedFrames += int(b / phys.PageSize)
		}
	}
	unlisted := n - listed
	if unlisted == 0 {
		unlisted = 1
	}
	remaining := d.NumFrames() - listedFrames
	if remaining < 0 {
		remaining = 0
	}
	return remaining / unlisted
}

// fault services an EPC page fault for page idx of enclave e, raised by
// thread th. The thread has already paid the exit round trip. write
// indicates the faulting access type (the paged-in page starts dirty for
// writes so hardware behaviour is conservative; SGX always writes back
// on EWB anyway).
func (d *Driver) fault(th *Thread, e *Enclave, idx uint64, write bool) {
	d.mu.Lock()
	e.pagingMu.Lock()

	p := &e.pages[idx]
	if p.state == pageResident {
		// Another thread resolved it while we were acquiring locks;
		// hardware would have replayed the access and hit.
		e.pagingMu.Unlock()
		d.mu.Unlock()
		return
	}

	d.stats.Faults++
	e.stats.bumpFaults()
	// Queue behind the driver-lock critical section of faults in flight
	// on other cores. Only the in-kernel bookkeeping serializes; the
	// MEE crypto and data movement of EWB/ELDU proceed per-core, which
	// is why the paper's baselines scale somewhat (2.7x at 4 threads for
	// memcached) but far below linearly.
	now := th.T.Cycles()
	serveStart := now
	if d.busyUntil > now {
		th.T.Charge(d.busyUntil - now)
		d.stats.QueuedCycles += d.busyUntil - now
		d.stats.ContendedFault++
		serveStart = d.busyUntil
	}
	d.busyUntil = serveStart + d.plat.Model.HWFaultDriver
	th.T.Charge(d.plat.Model.HWFaultDriver)
	th.T.Charge(d.plat.Model.HWFaultIndirect)

	frame := d.takeFrameLocked(th, e)
	data := d.frameData(frame)
	switch p.state {
	case pageAbsent:
		// Demand-zero materialization (EAUG-style).
		d.stats.DemandZero++
		if d.written[frame] {
			clear(data)
			d.written[frame] = false
		}
	case pageEvicted:
		// ELDU: fetch the sealed blob from untrusted memory, verify and
		// decrypt it into the frame. The crypto cost is part of
		// HWFaultDriver (the instruction's latency includes it), so the
		// sealer is invoked with a nil thread; the work is still real.
		ct := d.eldu[:]
		d.plat.Host.ReadAt(p.blobAddr, ct[:phys.PageSize])
		copy(ct[phys.PageSize:], p.tag[:])
		pt, err := e.sealer.Open(nil, data[:0], ct, e.pageAAD(idx), p.nonce)
		if err != nil {
			panic(fmt.Sprintf("sgx: EPC page integrity failure for enclave %d page %d: %v", e.id, idx, err))
		}
		if len(pt) != phys.PageSize {
			panic("sgx: sealed EPC page has wrong length")
		}
		d.plat.FreeHost(p.blobAddr)
		p.blobAddr = 0
		d.written[frame] = true
		d.stats.PageIns++
	}
	p.state = pageResident
	p.frame = frame
	p.accessed.Store(true)
	p.dirty.Store(write)
	e.resident = append(e.resident, uint32(idx))
	e.pagingMu.Unlock()
	d.mu.Unlock()
}

// takeFrameLocked hands out a free frame, running a reclaim round first
// if the pool is empty. Called with d.mu held (and possibly e.pagingMu —
// reclaim handles self-eviction re-entrantly via the caller's lock).
func (d *Driver) takeFrameLocked(th *Thread, faulting *Enclave) int32 {
	// A victim whose resident list held only pages freed since yields
	// no frame, but its sweep drops those entries: pick again.
	for len(d.freeFrames) == 0 && d.reclaimLocked(th, faulting) {
	}
	if len(d.freeFrames) == 0 {
		panic("sgx: PRM exhausted and reclaim found no victim (all pages pinned?)")
	}
	frame := d.freeFrames[len(d.freeFrames)-1]
	d.freeFrames = d.freeFrames[:len(d.freeFrames)-1]
	return frame
}

// reclaimLocked performs one background-swapper round: it evicts up to
// evictBatch pages from the enclave most over its PRM share, sealing
// them to host memory, and posts shootdown IPIs to the cores currently
// executing that enclave. Direct eviction costs are charged to th — the
// thread whose fault triggered the reclaim, which is also the CPU the
// swapper work runs on.
//
// It reports whether the round changed the victim's resident list.
//
// Called with d.mu held; the faulting enclave's pagingMu may be held, so
// victim lock acquisition tracks whether the victim is the faulter.
func (d *Driver) reclaimLocked(th *Thread, faulting *Enclave) bool {
	victim := d.pickVictimEnclaveLocked(faulting)
	if victim == nil {
		return false
	}
	d.stats.Rounds++
	if victim != faulting {
		victim.pagingMu.Lock()
		defer victim.pagingMu.Unlock()
	}
	listed := len(victim.resident)
	evicted := 0
	for evicted < d.evictBatch {
		if !d.evictOneLocked(th, victim) {
			break
		}
		evicted++
	}
	if evicted == 0 {
		return len(victim.resident) < listed
	}
	// One shootdown round: the driver's swapper runs asynchronously with
	// the enclave, so it IPIs every core in the victim enclave's cpumask
	// (the Linux driver's ETRACK bookkeeping is exactly this
	// conservative — the paper observes IPIs even for single-threaded
	// enclaves, §6.1.2 fn.3). Delivery is deferred to each receiver's
	// next enclave memory access, where it AEXes and flushes its TLB.
	victim.threadMu.Lock()
	ths := append([]*Thread(nil), victim.threads...)
	victim.threadMu.Unlock()
	for _, vt := range ths {
		vt.pendingIPI.Add(1)
		d.stats.IPIs++
		victim.stats.bumpIPIs()
	}
	return true
}

// pickVictimEnclaveLocked selects the enclave to reclaim from: the one
// most over its PRM share under the current share table (its fair cut
// of the even split when no table is installed), preferring enclaves
// with unpinned resident pages. Called with d.mu held.
func (d *Driver) pickVictimEnclaveLocked(faulting *Enclave) *Enclave {
	// Walk enclaves in id order: Go randomizes map iteration, and the
	// score comparison below breaks ties in walk order — letting the
	// map decide would let the victim choice (and with it the golden
	// cycle fingerprints) vary run to run. Sorted ids break ties toward
	// the oldest enclave.
	ids := make([]int, 0, len(d.enclaves))
	for id := range d.enclaves {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var best *Enclave
	bestScore := math.MinInt
	for _, id := range ids {
		e := d.enclaves[id]
		r := e.residentCount()
		if r == 0 {
			continue
		}
		score := r - d.quotaFramesLocked(id)
		if score > bestScore {
			best, bestScore = e, score
		}
	}
	if best == nil {
		best = faulting
	}
	return best
}

// evictOneLocked evicts one page from enclave v using a clock sweep with
// two passes: the first skips pinned pages (Eleos EPC++ frames under a
// correctly ballooned configuration), the second takes anything — which
// is precisely what thrashes a misconfigured EPC++ in Fig 9. Called with
// d.mu and v.pagingMu held. Returns false when nothing is evictable.
func (d *Driver) evictOneLocked(th *Thread, v *Enclave) bool {
	for pass := 0; pass < 2; pass++ {
		// Bound the sweep: one full circuit for the accessed-bit clock,
		// per pass. Stale-entry drops don't count against the budget —
		// they shrink len(v.resident) while the loop runs, and charging
		// them too would end the sweep before one true circuit when the
		// list is heavily polluted (e.g. right after a balloon shrink
		// freed half the pool), making reclaim miss evictable pages.
		for sweep := 0; sweep < len(v.resident)+1 && len(v.resident) > 0; {
			if v.clockHand >= len(v.resident) {
				v.clockHand = 0
			}
			idx := v.resident[v.clockHand]
			p := &v.pages[idx]
			if p.state != pageResident {
				// Stale entry (page was freed); drop it in place.
				v.resident[v.clockHand] = v.resident[len(v.resident)-1]
				v.resident = v.resident[:len(v.resident)-1]
				continue
			}
			sweep++
			if pass == 0 && p.pinned {
				v.clockHand++
				continue
			}
			if p.accessed.Swap(false) {
				v.clockHand++
				continue
			}
			// Victim found: seal (EWB always writes back, even clean
			// pages — the optimization SUVM adds is impossible here).
			d.sealOutLocked(th, v, uint64(idx), p)
			v.resident[v.clockHand] = v.resident[len(v.resident)-1]
			v.resident = v.resident[:len(v.resident)-1]
			return true
		}
	}
	return false
}

// sealOutLocked performs the EWB: encrypt the frame into a fresh host
// blob, record nonce+tag in driver metadata (the hardware keeps these in
// version arrays inside PRM), and release the frame.
func (d *Driver) sealOutLocked(th *Thread, v *Enclave, idx uint64, p *page) {
	th.T.Charge(d.plat.Model.HWFaultEvict)
	data := d.frameData(p.frame)
	ct := make([]byte, 0, phys.PageSize+seal.Overhead)
	nonce, ct := v.sealer.Seal(nil, ct, data, v.pageAAD(idx))
	blobAddr := d.plat.AllocHost(phys.PageSize)
	d.plat.Host.WriteAt(blobAddr, ct[:phys.PageSize])
	copy(p.tag[:], ct[phys.PageSize:])
	p.nonce = nonce
	p.blobAddr = blobAddr
	p.state = pageEvicted
	d.release(p)
	p.frame = -1
	d.stats.Evictions++
	v.stats.bumpEvictions()
}

// freePagesLocked returns the frames of a released page range to the
// pool. Called by Enclave.FreePages with both locks held.
func (d *Driver) freePagesLocked(e *Enclave, first, n uint64) {
	for i := first; i < first+n; i++ {
		p := &e.pages[i]
		switch p.state {
		case pageResident:
			d.release(p)
		case pageEvicted:
			d.plat.FreeHost(p.blobAddr)
		}
		*p = page{frame: -1}
	}
}

// release returns a resident page's frame to the pool, marking it
// written if the page was written since it was materialized. Called
// with d.mu and the owning enclave's pagingMu held.
func (d *Driver) release(p *page) {
	if p.dirty.Load() {
		d.written[p.frame] = true
	}
	d.freeFrames = append(d.freeFrames, p.frame)
}
