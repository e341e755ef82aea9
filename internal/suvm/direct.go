package suvm

import (
	"fmt"

	"eleos/internal/seal"
	"eleos/internal/sgx"
)

// directAccess implements sub-page direct access to the backing store
// (§3.2.4): data is decrypted/encrypted at sub-page granularity (each
// sub-page sealed separately with its own nonce) straight between the
// caller's buffer and untrusted memory, bypassing EPC++ entirely — akin
// to O_DIRECT for storage. Reads first verify that the page is not
// resident in the page cache, the paper's consistency check; direct
// allocations live in a dedicated backing region, so the check never
// fires but is still paid for.
//
//eleos:hotpath budget=0
func (h *Heap) directAccess(th *sgx.Thread, addr uint64, buf []byte, write bool, d *Domain) error {
	if addr < h.directBase {
		//eleos:allow hotpath -- cold error path: caller used the wrong region
		return fmt.Errorf("%w: address %#x is in the page-cached region", ErrNotDirect, addr)
	}
	for len(buf) > 0 {
		bsPage := h.bsPageOf(addr)
		pageOff := addr & (h.pageSize - 1)
		sub := int(pageOff / h.subSize)
		subOff := pageOff % h.subSize
		n := int(h.subSize - subOff)
		if n > len(buf) {
			n = len(buf)
		}
		if err := h.directSub(th, bsPage, sub, subOff, buf[:n], write, d); err != nil {
			return err
		}
		addr += uint64(n)
		buf = buf[n:]
	}
	return nil
}

// directSub performs one sub-page read or write (read-modify-write for
// partial writes, which the paper's prototype did not support and we
// implement as an extension — see DESIGN.md).
//
//eleos:hotpath budget=0
func (h *Heap) directSub(th *sgx.Thread, bsPage uint64, sub int, subOff uint64, buf []byte, write bool, d *Domain) error {
	// Consistency check: the page must not be resident in EPC++.
	h.lockCost(th)
	//eleos:allow hotpath -- simulated EPC access: the sgx memory model's worst case includes the hardware page-fault path, cold by definition
	h.touchIPT(th, bsPage)
	sh := h.resident.shard(bsPage)
	sh.mu.Lock()
	_, cached := sh.m[bsPage]
	sh.mu.Unlock()
	if cached {
		//eleos:allow hotpath -- cold error path: consistency-check failure is a bug, not a workload
		return fmt.Errorf("%w: page %d unexpectedly resident in EPC++", ErrNotDirect, bsPage)
	}

	subAddr := h.bsAddrOf(bsPage) + uint64(sub)*h.subSize
	th.T.Charge(h.model.SubPageOverhead)
	h.lockCost(th)
	//eleos:allow hotpath -- simulated EPC access plus lazy metadata-chunk growth, both cold or amortized
	h.touchMeta(th, bsPage, write)
	ms := h.meta.shard(bsPage)
	ms.mu.Lock()
	defer ms.mu.Unlock()
	//eleos:allow hotpath -- first-touch metadata entry creation, amortized over the page lifetime
	m := ms.get(bsPage, write)
	var sm *subMeta
	if m != nil {
		if m.subs == nil && write {
			//eleos:allow hotpath -- lazy one-time sub-page metadata for the page, amortized over its lifetime
			m.subs = make([]subMeta, h.subsPer)
		}
		if m.subs != nil {
			sm = &m.subs[sub]
		}
	}

	if !write {
		d.stats.directReads.Add(1)
		if sm == nil || !sm.present {
			clear(buf)
			return nil
		}
		scratch := h.getScratch()
		defer h.putScratch(scratch)
		pt, err := h.openSub(th, subAddr, sm, (*scratch)[:0])
		if err != nil {
			return err
		}
		copy(buf, pt[subOff:])
		return nil
	}

	d.stats.directWrites.Add(1)
	full := subOff == 0 && uint64(len(buf)) == h.subSize
	var plain []byte
	scratch := h.getScratch()
	defer h.putScratch(scratch)
	if full {
		plain = buf
	} else {
		// Read-modify-write below sub-page granularity: decrypt the old
		// sub-page straight into the scratch, then splice the write in.
		if sm != nil && sm.present {
			old, err := h.openSub(th, subAddr, sm, (*scratch)[:0])
			if err != nil {
				return err
			}
			plain = old
		} else {
			plain = (*scratch)[:h.subSize]
			clear(plain)
		}
		copy(plain[subOff:], buf)
	}
	ctBuf := h.getScratch()
	defer h.putScratch(ctBuf)
	nonce, sealed := h.seal.Seal(th.T, (*ctBuf)[:0], plain, seal.AddrAAD(subAddr))
	//eleos:allow hotpath -- simulated host-memory write: worst case includes the fault path, cold by definition
	th.Write(subAddr, sealed[:h.subSize])
	sm.present = true
	sm.nonce = nonce
	copy(sm.tag[:], sealed[h.subSize:])
	return nil
}

// openSub reads and decrypts one sub-page from the backing store,
// appending the plaintext into dst — an empty slice over caller-owned
// scratch, so the read path allocates nothing per call. The returned
// slice aliases dst's backing array and is valid only while the caller
// holds that scratch.
//
//eleos:hotpath budget=0
func (h *Heap) openSub(th *sgx.Thread, subAddr uint64, sm *subMeta, dst []byte) ([]byte, error) {
	ct := h.getScratch()
	defer h.putScratch(ct)
	//eleos:allow hotpath -- simulated host-memory read: worst case includes the fault path, cold by definition
	th.Read(subAddr, (*ct)[:h.subSize])
	copy((*ct)[h.subSize:], sm.tag[:])
	plain, err := h.seal.Open(th.T, dst, (*ct)[:h.subSize+seal.Overhead], seal.AddrAAD(subAddr), sm.nonce)
	if err != nil {
		//eleos:allow hotpath -- cold error path: integrity failure aborts the access
		return nil, fmt.Errorf("suvm: direct sub-page at %#x failed integrity verification: %w", subAddr, err)
	}
	return plain, nil
}
