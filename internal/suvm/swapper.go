package suvm

import (
	"fmt"
	"sync"

	"eleos/internal/epoch"
	"eleos/internal/phys"
	"eleos/internal/sgx"
)

// ResizeTo adjusts the EPC++ capacity to targetBytes: the TOTAL over
// the root and every carved domain, clamped to the sum of their floors
// and of their capacities. Shrinking evicts the vacated frames'
// contents (write-back if dirty) and returns their EPC pages to the SGX
// driver; growing re-pins previously released pages. This is the
// operation the paper's swapper thread performs when the driver reports
// PRM pressure (§3.3) — and, unlike the paper's prototype (§4.2, which
// fixed the size at initialization), it works dynamically. Resizing is
// an exclusive phase of the fault pipeline: it waits for in-flight
// faults to drain and blocks new ones for its (short) duration.
//
// The balloon scales each domain proportionally to its current size:
// every domain keeps min(4, capacity) frames, and leftover frames are
// distributed in fixed order (root first, then carve order) so the
// split is deterministic. Shrinks run before grows so vacated EPC pages
// return to the driver before new ones are pinned. A pinned frame
// aborts the resize mid-way with the domains already resized kept; the
// next balloon tick retries from the new geometry.
func (h *Heap) ResizeTo(th *sgx.Thread, targetBytes uint64) error {
	h.epoch.Lock()
	defer h.epoch.Unlock()
	return h.resizeLocked(th, int(targetBytes/h.pageSize))
}

// floor is the fewest frames ballooning leaves a domain.
func (d *Domain) floor() int { return min(4, d.count) }

// resizeLocked is ResizeTo with the exclusive resize epoch held.
func (h *Heap) resizeLocked(th *sgx.Thread, target int) error {
	doms := h.domainList()
	total, floorSum, capSum := 0, 0, 0
	for _, d := range doms {
		total += d.active
		floorSum += d.floor()
		capSum += d.count
	}
	target = max(floorSum, min(target, capSum))
	if target == total {
		return nil
	}
	h.root.stats.resizes.Add(1)

	// Proportional split by current size, clamped per domain.
	want := make([]int, len(doms))
	assigned := 0
	for i, d := range doms {
		w := int(int64(target) * int64(d.active) / int64(total))
		want[i] = max(d.floor(), min(w, d.count))
		assigned += want[i]
	}
	// Distribute the remainder one frame at a time in fixed domain order.
	// target ∈ [floorSum, capSum] guarantees the loop drains.
	for rem := target - assigned; rem != 0; {
		for i, d := range doms {
			if rem > 0 && want[i] < d.count {
				want[i]++
				rem--
			} else if rem < 0 && want[i] > d.floor() {
				want[i]--
				rem++
			}
			if rem == 0 {
				break
			}
		}
	}

	for i, d := range doms {
		if want[i] < d.active {
			if err := h.shrinkLocked(th, d, want[i]); err != nil {
				return err
			}
		}
	}
	for i, d := range doms {
		if want[i] > d.active {
			h.growLocked(th, d, want[i])
		}
	}
	return nil
}

// pinnedEdge is the 4 KiB-aligned boundary between a domain's pinned
// prefix and its released suffix when its first a frames are active:
// whole EPC pages at or above it (and fully inside the domain) are
// released. Aligning up keeps any page shared with an active frame
// pinned.
func (d *Domain) pinnedEdge(a int) uint64 {
	off := uint64(d.start+a) * d.h.pageSize
	return (off + phys.PageSize - 1) &^ (phys.PageSize - 1)
}

// ceil is the highest byte a domain may release or pin: the last 4 KiB
// boundary fully inside its range (a tail page shared with the next
// domain's frames stays pinned permanently).
func (d *Domain) ceil() uint64 {
	return (uint64(d.start+d.count) * d.h.pageSize) &^ (phys.PageSize - 1)
}

// shrinkLocked vacates d's top frames down to n: evict contents
// (write-back if dirty, charged to th), disable the frames, drop them
// from d's pool and return the fully vacated EPC pages to the driver.
// Pinned (linked) frames cannot be vacated; the shrink fails fast so
// the caller (swapper tick or explicit resize) retries. Called with the
// exclusive epoch held.
func (h *Heap) shrinkLocked(th *sgx.Thread, d *Domain, n int) error {
	if f, ok := h.vacateLocked(th, d.free, d.start+n, d.start+d.active); !ok {
		return fmt.Errorf("suvm: cannot shrink %s EPC++ to %d frames: frame %d is pinned by a linked spointer",
			d.name, n, f)
	}
	lo, hi := d.pinnedEdge(n), min(d.pinnedEdge(d.active), d.ceil())
	if hi > lo {
		h.encl.FreePages(h.frameBase+lo, hi-lo)
	}
	d.active = n
	return nil
}

// vacateLocked empties frames [lo, hi), evicting their pages (write-back
// if dirty, charged to th), disables them and drops them from pool. It
// is all or nothing: at a frame pinned by a linked spointer it stops,
// returns the frames it emptied to pool and reports the pinned frame,
// leaving every frame in the range enabled and allocatable. A frame left
// disabled but still pooled would be refilled by a fault and then
// skipped by the next shrink, which would release its EPC under a
// resident page. Called with the exclusive epoch held.
func (h *Heap) vacateLocked(th *sgx.Thread, pool *framePool, lo, hi int) (int, bool) {
	var emptied []int32
	for f := hi - 1; f >= lo; f-- {
		if h.frames[f].bsPage.Load() == noBSPage {
			continue
		}
		if ok, _ := h.evictFrame(th, int32(f)); !ok {
			for _, e := range emptied {
				pool.put(e)
			}
			return f, false
		}
		emptied = append(emptied, int32(f))
	}
	for f := lo; f < hi; f++ {
		h.frames[f].disabled = true
	}
	pool.filter(func(f int32) bool { return !h.frames[f].disabled })
	return 0, true
}

// growLocked re-enables d's frames up to n, re-pinning the underlying
// EPC pages (charged to th) and returning the frames to d's pool.
// Called with the exclusive epoch held.
func (h *Heap) growLocked(th *sgx.Thread, d *Domain, n int) {
	lo, hi := d.pinnedEdge(d.active), min(d.pinnedEdge(n), d.ceil())
	if hi > lo {
		h.encl.Pin(th, h.frameBase+lo, hi-lo)
	}
	for f := d.start + n - 1; f >= d.start+d.active; f-- {
		h.frames[f].disabled = false
		h.frames[f].bsPage.Store(noBSPage)
		d.free.put(int32(f))
	}
	d.active = n
}

// ReclaimFreePool pre-evicts pages until the free pool holds at least
// target frames (or nothing evictable remains) — the §3.2.3 swapper
// duty of "maintaining enough pages in the EPC++ free memory pool".
// Run from a dedicated swapper thread, it moves eviction work (dirty
// write-backs included) off the application threads' fault critical
// path: their major faults then find free frames and pay only the
// page-in. Each eviction holds the resize epoch shared for just that
// iteration, so application faults proceed alongside the reclaim and a
// resize never waits for more than one eviction.
func (h *Heap) ReclaimFreePool(th *sgx.Thread, target int) int {
	root := h.root
	active := root.ActiveFrames()
	if target > active/2 {
		target = active / 2
	}
	reclaimed, stalls := 0, 0
	for {
		h.epoch.RLock()
		if root.free.size() >= target {
			h.epoch.RUnlock()
			return reclaimed
		}
		v := root.ev.pick(root)
		if v < 0 {
			h.epoch.RUnlock()
			return reclaimed
		}
		ok, _ := h.evictFrame(th, v)
		if ok {
			// The put must stay inside the epoch read section: between a
			// vacating eviction and the put, an exclusive shrink would see
			// frame v already empty, disable it, filter the free pools (v
			// not yet pooled) and release its EPC pages — a put after that
			// resurrects a disabled frame for future page-ins.
			root.free.put(v)
			reclaimed++
			stalls = 0
			h.epoch.RUnlock()
			continue
		}
		h.epoch.RUnlock()
		// Victim pinned, remapped, or mid-eviction by a faulting thread
		// (which keeps the frame for itself): move on, but give up after
		// a full pool's worth of consecutive misses — the faulting
		// threads are clearly consuming frames as fast as we free them.
		stalls++
		if stalls > active {
			return reclaimed
		}
	}
}

// BalloonTarget maps a driver-reported PRM share to the EPC++ capacity
// the balloon should chase: the share minus 25% headroom for the
// enclave's other memory (page tables, application heap), capped at the
// configured PageCacheBytes. Pure policy, no state touched — the target
// half of the BalloonTick split; the fleet controller uses it to turn
// the shares it installs into per-heap resize targets.
func (h *Heap) BalloonTarget(availBytes uint64) uint64 {
	target := availBytes - availBytes/4
	if target > h.cfg.PageCacheBytes {
		target = h.cfg.PageCacheBytes
	}
	return target
}

// BalloonTick queries the SGX driver for this enclave's PRM share and
// resizes EPC++ to fit inside it, leaving a fraction of headroom for the
// enclave's other memory (page tables, application heap). This is the
// cooperative memory management of §3.3 — the enclave-side analogue of
// VM ballooning, except the trusted runtime can directly shrink its own
// working set. A refused resize (e.g. a transiently pinned frame) is
// recorded in the heap stats (BalloonSkips, LastBalloonErr) so skipped
// ticks are observable even when the caller discards the error.
func (h *Heap) BalloonTick(th *sgx.Thread) error {
	avail := h.plat.Driver.AvailableEPCBytesFor(h.encl.ID())
	err := h.ResizeTo(th, h.BalloonTarget(avail))
	if err != nil {
		h.root.stats.balloonSkips.Add(1)
		msg := err.Error()
		h.lastBalloonErr.Store(&msg)
	}
	return err
}

// BalloonSignal is the demand half of the BalloonTick split: the
// per-heap counters the fleet controller samples each epoch to decide
// how PRM shares should move. All fields aggregate the root and every
// carved domain.
type BalloonSignal struct {
	// ActiveFrames is the current total EPC++ capacity in pages and
	// CapacityFrames the configured maximum; FreeFrames is the pooled
	// free-frame count (racy by nature, like framePool.size).
	ActiveFrames   int
	CapacityFrames int
	FreeFrames     int
	// PageBytes is the heap's EPC++ page size.
	PageBytes uint64
	// Cumulative demand counters (see StatsSnapshot for semantics).
	MajorFaults     uint64
	FaultsCoalesced uint64
	FaultWaitCycles uint64
	EvictScans      uint64
	EvictScanFrames uint64
}

// BalloonSignal samples the heap's demand counters for the fleet
// controller. Reading charges no cycles: like Stats, it models the
// untrusted runtime inspecting shared counters from outside.
func (h *Heap) BalloonSignal() BalloonSignal {
	s := h.Stats()
	h.epoch.RLock()
	active, free := 0, 0
	for _, d := range h.domainList() {
		active += d.active
		free += d.free.size()
	}
	h.epoch.RUnlock()
	return BalloonSignal{
		ActiveFrames:    active,
		CapacityFrames:  len(h.frames),
		FreeFrames:      free,
		PageBytes:       h.pageSize,
		MajorFaults:     s.MajorFaults,
		FaultsCoalesced: s.FaultsCoalesced,
		FaultWaitCycles: s.FaultWaitCycles,
		EvictScans:      s.EvictScans,
		EvictScanFrames: s.EvictScanFrames,
	}
}

// Swapper is the EPC++ swapper of §3.2.3: a dedicated enclave thread
// that re-balloons the page cache in response to driver-reported PRM
// pressure and tops up the free frame pool so application faults skip
// the eviction work. It runs on virtual time: Pump ticks it once per
// epoch of the pumping thread's clock, and TickNow ticks it at once. No
// host timer ever drives it, so a run that ticks it replays exactly.
type Swapper struct {
	h  *Heap
	th *sgx.Thread
	//eleos:lockorder 1
	mu    sync.Mutex // serializes ticks and guards clock
	clock epoch.Clock
}

// freePoolFraction is the share of EPC++ the swapper keeps free.
const freePoolFraction = 32 // 1/32 ≈ 3%

// NewSwapper creates the heap's swapper with its own enclave thread.
func (h *Heap) NewSwapper() *Swapper {
	return &Swapper{h: h, th: h.encl.NewThread(), clock: epoch.Clock{Every: epoch.DefaultEvery}}
}

// Pump ticks the swapper when th's virtual clock has crossed an epoch
// boundary (epoch.DefaultEvery cycles) since the last tick; the first
// Pump only starts the clock. The tick runs on the swapper's own thread,
// so th is charged nothing. Off-epoch it is one clock comparison under
// the mutex. Returns whether it ticked.
func (s *Swapper) Pump(th *sgx.Thread) bool {
	now := th.T.Cycles()
	s.mu.Lock()
	defer s.mu.Unlock()
	if tick, _ := s.clock.Tick(now); tick != epoch.Fire {
		return false
	}
	s.tickLocked()
	return true
}

// TickNow runs one synchronous swapper tick. Safe to call concurrently
// with application faults and with Pump (ticks serialize).
func (s *Swapper) TickNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tickLocked()
}

// tickLocked balloons EPC++ against the driver-reported PRM share, then
// tops up the free frame pool, on the swapper's thread with s.mu held.
func (s *Swapper) tickLocked() {
	s.th.Enter()
	// Best effort: a transiently pinned frame may block a shrink; the
	// next tick retries.
	_ = s.h.BalloonTick(s.th)
	s.h.ReclaimFreePool(s.th, s.h.ActiveFrames()/freePoolFraction)
	s.th.Exit()
}
