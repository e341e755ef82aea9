package suvm

import (
	"fmt"
	"runtime"

	"eleos/internal/seal"
	"eleos/internal/sgx"
)

// acquire returns the EPC++ frame caching bsPage with its reference
// count raised (pinning it against eviction), faulting the page in if it
// is not resident. This is the unlinked-spointer path: resident hits are
// the paper's minor faults, misses its major faults. The caller must
// pair it with release. d is the domain faulting on its own behalf: its
// frames supply the page-in and its counters record the events. Fails with sgx.ErrOutOfEPC (wrapped) when every frame is
// pinned by a linked spointer.
func (h *Heap) acquire(th *sgx.Thread, bsPage uint64, d *Domain) (int32, error) {
	h.lockCost(th)
	h.touchIPT(th, bsPage)
	sh := h.resident.shard(bsPage)
	sh.mu.Lock()
	if f, ok := sh.m[bsPage]; ok {
		fm := &h.frames[f]
		fm.refcnt.Add(1)
		setFlag(&fm.accessed)
		sh.mu.Unlock()
		d.stats.minorFaults.Add(1)
		return f, nil
	}
	sh.mu.Unlock()
	return h.majorFault(th, bsPage, d)
}

// release drops the pin taken by acquire, propagating the access's dirty
// state into the page table (the paper copies the spointer dirty bit on
// unlink, §3.2.4). It charges the resident-shard lock the paper's
// unpin takes, but needs no host lock: it sets dirty before the
// decrement that may unpin the frame, and evictFrame reads refcnt and
// then dirty, so an eviction that sees the pin gone sees the dirty bit.
func (h *Heap) release(th *sgx.Thread, f int32, dirty bool) {
	fm := &h.frames[f]
	h.lockCost(th)
	if dirty {
		setFlag(&fm.dirty)
	}
	if fm.refcnt.Add(-1) < 0 {
		panic("suvm: frame reference count underflow")
	}
}

// majorFault pages bsPage into EPC++ — entirely inside the enclave: no
// exit, no TLB flush, no IPIs. Faults on different pages run fully in
// parallel; faults on the same page are coalesced through the in-flight
// table, each faulting page having a single owner whose waiters link to
// the winner's frame (the paper handles faults concurrently on the
// faulting threads under per-bucket locks, §4.1). The single lockCost
// charged at entry models that per-bucket lock; the in-flight bookkeeping
// rides under it.
func (h *Heap) majorFault(th *sgx.Thread, bsPage uint64, d *Domain) (int32, error) {
	h.lockCost(th)
	// Faults are readers of the resize epoch: ballooning, ResizeTo,
	// domain carving and segment attach/detach take it exclusively.
	h.epoch.RLock()
	defer h.epoch.RUnlock()
	for {
		// Recheck residency: another thread may have paged this page in
		// while we were reaching the slow path (or while we waited on its
		// in-flight entry below). Both checks hold the in-flight shard
		// lock: a page-in maps its page before it unpublishes its entry,
		// so a page-in finishing between them cannot go unseen and be
		// repeated into a second frame.
		sh := h.resident.shard(bsPage)
		is := h.inflight.shard(bsPage)
		is.mu.Lock()
		sh.mu.Lock()
		if f, ok := sh.m[bsPage]; ok {
			fm := &h.frames[f]
			fm.refcnt.Add(1)
			setFlag(&fm.accessed)
			sh.mu.Unlock()
			is.mu.Unlock()
			d.stats.minorFaults.Add(1)
			return f, nil
		}
		sh.mu.Unlock()
		if op, ok := is.m[bsPage]; ok {
			// Someone else owns this page's fault (or is evicting it):
			// wait, pay the queueing delay, and retry — on a coalesced
			// page-in the retry is a minor fault onto the winner's frame.
			is.mu.Unlock()
			h.waitInflight(th, op, true, d)
			continue
		}
		op := &inflightOp{done: make(chan struct{})}
		is.m[bsPage] = op
		is.mu.Unlock()

		// Yield the host CPU once before the heavy page-in work. The
		// page-in occupies this thread for thousands of virtual cycles;
		// without a yield point a host with few cores would run it to
		// completion before any virtually-concurrent faulter of the same
		// page could reach the in-flight entry and queue up. Wall-clock
		// scheduling is a simulation artifact — this costs no virtual
		// cycles.
		runtime.Gosched()

		c0 := th.T.Cycles()
		f, err := h.takeFrame(th, d)
		if err != nil {
			h.finishInflight(th, is, bsPage, op)
			return -1, err
		}
		h.pageIn(th, bsPage, f, d)
		d.stats.faultCycles.Add(th.T.Cycles() - c0)
		fm := &h.frames[f]
		fm.bsPage.Store(bsPage)
		fm.refcnt.Store(1)
		fm.accessed.Store(true)
		fm.dirty.Store(false)

		sh.mu.Lock()
		sh.m[bsPage] = f
		sh.mu.Unlock()
		op.pagedIn = true
		h.finishInflight(th, is, bsPage, op)
		d.stats.majorFaults.Add(1)
		return f, nil
	}
}

// waitInflight blocks until the page's in-flight operation completes and
// charges the waiter the single-server queueing delay — virtual time
// advances to the owner's completion timestamp, exactly as the SGX
// driver's busyUntil model charges hardware faults that queue behind an
// earlier fault. coalesce marks a same-page faulter (the majorFault
// retry path): it is counted as a coalesced fault of §4.1 when the
// owner's page-in succeeded, since only then does its retry adopt the
// winner's frame. takeFrame waiters pass false — they queue on a
// victim's page while claiming a frame, which is contention, not
// coalescing.
func (h *Heap) waitInflight(th *sgx.Thread, op *inflightOp, coalesce bool, d *Domain) {
	<-op.done
	if now := th.T.Cycles(); op.doneAt > now {
		wait := op.doneAt - now
		th.T.Charge(wait)
		d.stats.faultWaitCycles.Add(wait)
	}
	if coalesce && op.pagedIn {
		d.stats.faultsCoalesced.Add(1)
	}
}

// finishInflight stamps the owner's completion time, unpublishes the
// entry and wakes the waiters.
func (h *Heap) finishInflight(th *sgx.Thread, is *inflightShard, bsPage uint64, op *inflightOp) {
	op.doneAt = th.T.Cycles()
	is.mu.Lock()
	delete(is.m, bsPage)
	is.mu.Unlock()
	close(op.done)
}

// pageIn fills frame f with the contents of bsPage: decrypt-and-verify
// from the backing store if a sealed copy exists, zero-fill otherwise
// (fresh allocation). Called with the page's in-flight entry held; the
// frame is not yet published in the resident table.
func (h *Heap) pageIn(th *sgx.Thread, bsPage uint64, f int32, d *Domain) {
	h.lockCost(th)
	h.touchMeta(th, bsPage, false)
	ms := h.meta.shard(bsPage)
	ms.mu.Lock()
	m := ms.get(bsPage, false)
	var nonce seal.Nonce
	var tag [seal.TagSize]byte
	present := m != nil && m.present
	if present {
		nonce, tag = m.nonce, m.tag
	}
	ms.mu.Unlock()

	if !present {
		th.WriteStream(h.frameVaddr(f), zeroBuf[:h.pageSize])
		d.stats.pageIns.Add(1)
		return
	}
	addr, sealer := h.resolve(bsPage)
	ct := h.getScratch()
	pt := h.getScratch()
	defer h.putScratch(ct)
	defer h.putScratch(pt)
	th.Read(addr, (*ct)[:h.pageSize])
	copy((*ct)[h.pageSize:], tag[:])
	plain, err := sealer.Open(th.T, (*pt)[:0], (*ct)[:h.pageSize+seal.Overhead], seal.AddrAAD(addr), nonce)
	if err != nil {
		panic(fmt.Sprintf("suvm: backing-store page %d failed integrity verification: %v", bsPage, err))
	}
	th.WriteStream(h.frameVaddr(f), plain)
	d.stats.pageIns.Add(1)
}

// evictAttempts bounds consecutive empty victim scans before takeFrame
// declares EPC++ exhausted.
const evictAttempts = 3

// takeFrame supplies one free frame for a page-in: pop the sharded free
// pool, else evict a victim. Frame supply is per-domain: a domain's
// faults draw from its own pool and evict within its own frame range
// only, so one domain can never steal another's EPC++. Races with other takers are resolved page by
// page — a victim that another thread is already evicting is skipped
// (after waiting out the conflict), a victim that got pinned or remapped
// since selection costs one retry. Fails with sgx.ErrOutOfEPC (wrapped)
// only when victim selection finds no unpinned frame at all.
func (h *Heap) takeFrame(th *sgx.Thread, d *Domain) (int32, error) {
	exhausted := 0
	for {
		if f, ok := d.free.take(); ok {
			return f, nil
		}
		v := d.ev.pick(d)
		if v < 0 {
			exhausted++
			if exhausted >= evictAttempts {
				return -1, fmt.Errorf("suvm: EPC++ of domain %q exhausted — every frame is pinned by a linked spointer: %w", d.name, sgx.ErrOutOfEPC)
			}
			continue
		}
		exhausted = 0
		ok, busy := h.evictFrame(th, v)
		if ok {
			return v, nil
		}
		if busy != nil {
			// Another thread is mid-eviction on this victim's page and
			// keeps the frame; wait out the conflict and pick elsewhere.
			h.waitInflight(th, busy, false, d)
		}
	}
}

// evictFrame evicts frame f from EPC++: claim the page in the in-flight
// table (excluding concurrent faults and evictions of the same page),
// unmap it, then write the page back to the sealed backing store —
// unless it is clean and a valid sealed copy already exists, in which
// case it is simply dropped (the write-back avoidance optimization of
// §3.2.4, impossible under SGX's EWB). The in-flight entry is held
// across the write-back, so a concurrent fault on the page waits for
// the sealed bytes to be complete before paging them back in — the
// ordering the old global fault lock used to provide.
//
// Returns (false, op) when the page is already owned by another
// in-flight operation, and (false, nil) when the frame got pinned or
// remapped since victim selection.
func (h *Heap) evictFrame(th *sgx.Thread, f int32) (bool, *inflightOp) {
	fm := &h.frames[f]
	bsPage := fm.bsPage.Load()
	if bsPage == noBSPage {
		return false, nil
	}
	is := h.inflight.shard(bsPage)
	is.mu.Lock()
	if other, ok := is.m[bsPage]; ok {
		is.mu.Unlock()
		return false, other
	}
	op := &inflightOp{done: make(chan struct{}), evicting: true}
	is.m[bsPage] = op
	is.mu.Unlock()

	sh := h.resident.shard(bsPage)
	h.lockCost(th)
	sh.mu.Lock()
	cur, mapped := sh.m[bsPage]
	if !mapped || cur != f || fm.bsPage.Load() != bsPage || fm.refcnt.Load() != 0 {
		// Lost the race: pinned, already evicted, or the frame was
		// recycled for another page since selection.
		sh.mu.Unlock()
		h.finishInflight(th, is, bsPage, op)
		return false, nil
	}
	// refcnt is 0, and the shard lock keeps acquire from pinning again.
	// A writer's release sets dirty before it decrements refcnt, so the
	// load below, ordered after the load of refcnt, sees every write.
	delete(sh.m, bsPage)
	dirty := fm.dirty.Load()
	fm.dirty.Store(false)
	fm.bsPage.Store(noBSPage)
	sh.mu.Unlock()

	// Attribute the eviction to the frame's owning domain — the victim
	// is always one of the evicting domain's own frames, because victim
	// selection and free pools are range-confined per domain.
	st := &fm.dom.stats
	if dirty || h.cfg.WriteBackClean {
		h.writeBack(th, bsPage, f)
	} else {
		st.cleanDrops.Add(1)
	}
	st.evictions.Add(1)
	h.finishInflight(th, is, bsPage, op)
	return true, nil
}

// writeBack seals the frame contents with a fresh nonce and stores the
// ciphertext at the page's backing-store address, recording nonce and
// MAC in the crypto-metadata table inside the enclave.
func (h *Heap) writeBack(th *sgx.Thread, bsPage uint64, f int32) {
	addr, sealer := h.resolve(bsPage)
	pt := h.getScratch()
	ct := h.getScratch()
	defer h.putScratch(pt)
	defer h.putScratch(ct)
	th.Read(h.frameVaddr(f), (*pt)[:h.pageSize])
	nonce, sealed := sealer.Seal(th.T, (*ct)[:0], (*pt)[:h.pageSize], seal.AddrAAD(addr))
	th.Write(addr, sealed[:h.pageSize])

	h.lockCost(th)
	h.touchMeta(th, bsPage, true)
	ms := h.meta.shard(bsPage)
	ms.mu.Lock()
	m := ms.get(bsPage, true)
	m.present = true
	m.nonce = nonce
	copy(m.tag[:], sealed[h.pageSize:])
	ms.mu.Unlock()
	h.frames[f].dom.stats.writeBacks.Add(1)
}

// access is the positioned, stays-unlinked data path used by containers
// (and by spointer accesses spanning a page boundary): each touched page
// is transiently pinned, copied through, and released. On error the
// copy stops at the failing page; earlier pages have been transferred.
func (h *Heap) access(th *sgx.Thread, addr uint64, buf []byte, write bool, d *Domain) error {
	for len(buf) > 0 {
		bsPage := h.bsPageOf(addr)
		pageOff := addr & (h.pageSize - 1)
		n := int(h.pageSize - pageOff)
		if n > len(buf) {
			n = len(buf)
		}
		f, err := h.acquire(th, bsPage, d)
		if err != nil {
			return err
		}
		if write {
			th.Write(h.frameVaddr(f)+pageOff, buf[:n])
		} else {
			th.Read(h.frameVaddr(f)+pageOff, buf[:n])
		}
		h.release(th, f, write)
		addr += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// zeroBuf backs zero-fill page-ins for every supported page size.
var zeroBuf = make([]byte, 64<<10)

// CorruptBacking flips one bit of the sealed blob behind the given
// backing-store address. Test hook demonstrating that SUVM integrity
// protection is real: the next page-in panics.
func (h *Heap) CorruptBacking(p *SPtr, off uint64) {
	pageAddr, _ := h.resolve(h.bsPageOf(p.base + off))
	addr := pageAddr + ((p.base + off) & (h.pageSize - 1))
	var b [1]byte
	h.plat.Host.ReadAt(addr, b[:])
	b[0] ^= 0x80
	h.plat.Host.WriteAt(addr, b[:])
}

// Resident reports whether the page containing offset off of allocation
// p is currently cached in EPC++ (test and harness hook).
func (h *Heap) Resident(p *SPtr, off uint64) bool {
	bsPage := h.bsPageOf(p.base + off)
	sh := h.resident.shard(bsPage)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.m[bsPage]
	return ok
}
