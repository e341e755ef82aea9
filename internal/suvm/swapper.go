package suvm

import (
	"fmt"
	"sync"
	"time"

	"eleos/internal/phys"
	"eleos/internal/sgx"
)

// ResizeTo adjusts the EPC++ capacity to targetBytes (clamped to
// [4 pages, configured capacity]). Shrinking evicts the vacated frames'
// contents (write-back if dirty) and returns their EPC pages to the SGX
// driver; growing re-pins previously released pages. This is the
// operation the paper's swapper thread performs when the driver reports
// PRM pressure (§3.3) — and, unlike the paper's prototype (§4.2, which
// fixed the size at initialization), it works dynamically. Resizing is
// an exclusive phase of the fault pipeline: it waits for in-flight
// faults to drain and blocks new ones for its (short) duration.
//
// On a heap with carved service domains the target is the TOTAL EPC++
// capacity (root plus every domain) and the balloon scales each carve
// proportionally to its current size: the root keeps its ≥4-frame
// floor, every domain keeps min(4, carve) frames, and leftover frames
// are distributed in fixed order (root first, then carve order) so the
// split is deterministic. See resizeDomainsLocked.
func (h *Heap) ResizeTo(th *sgx.Thread, targetBytes uint64) error {
	target := int(targetBytes / h.pageSize)
	if target < 4 {
		target = 4
	}
	if target > len(h.frames) {
		target = len(h.frames)
	}
	h.epoch.Lock()
	defer h.epoch.Unlock()
	if doms := h.domainList(); len(doms) > 0 {
		return h.resizeDomainsLocked(th, target, doms)
	}
	if target == h.activeFrames {
		return nil
	}
	h.stats.resizes.Add(1)
	if target < h.activeFrames {
		return h.shrinkLocked(th, target)
	}
	return h.growLocked(th, target)
}

func (h *Heap) shrinkLocked(th *sgx.Thread, target int) error {
	// Pinned (linked) frames cannot be vacated; fail fast so the caller
	// (swapper tick or explicit resize) retries.
	if f, ok := h.vacateLocked(th, h.free, target, h.activeFrames); !ok {
		return fmt.Errorf("suvm: cannot shrink EPC++ below %d frames: frame %d is pinned by a linked spointer", f+1, f)
	}
	h.activeFrames = target
	// Return the underlying EPC pages to the driver (whole 4 KiB pages
	// only; with sub-4K SUVM pages the tail partial page is kept).
	start := uint64(target) * h.pageSize
	end := uint64(len(h.frames)) * h.pageSize
	start = (start + phys.PageSize - 1) &^ (phys.PageSize - 1)
	if end > start {
		h.encl.FreePages(h.frameBase+start, end-start)
	}
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

func (h *Heap) growLocked(th *sgx.Thread, target int) error {
	start := uint64(h.activeFrames) * h.pageSize
	end := uint64(target) * h.pageSize
	start = (start + phys.PageSize - 1) &^ (phys.PageSize - 1)
	if end > start {
		// Re-materialize and pin the underlying EPC pages.
		h.encl.Pin(th, h.frameBase+start, end-start)
	}
	for f := target - 1; f >= h.activeFrames; f-- {
		h.frames[f].disabled = false
		h.frames[f].bsPage.Store(noBSPage)
		h.free.put(int32(f))
	}
	h.activeFrames = target
	return nil
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
	h.epoch.RLock()
	active := h.activeFrames
	h.epoch.RUnlock()
	if target > active/2 {
		target = active / 2
	}
	reclaimed, stalls := 0, 0
	for {
		h.epoch.RLock()
		if h.free.size() >= target {
			h.epoch.RUnlock()
			return reclaimed
		}
		v := h.ev.pick(h, nil)
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
			h.free.put(v)
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

// ApplyBalloonTarget resizes EPC++ to targetBytes — the application
// half of the BalloonTick split, for callers (the fleet controller)
// that computed the target themselves. Currently a named alias of
// ResizeTo, kept separate so the balloon entry point is explicit.
func (h *Heap) ApplyBalloonTarget(th *sgx.Thread, targetBytes uint64) error {
	return h.ResizeTo(th, targetBytes)
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
	err := h.ApplyBalloonTarget(th, h.BalloonTarget(avail))
	if err != nil {
		h.stats.balloonSkips.Add(1)
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
	active := h.activeFrames
	free := h.free.size()
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
// the eviction work. It runs in one of two modes: wall-clock (built by
// StartSwapper, a background goroutine ticking at a fixed interval —
// the server deployment) or manual (built by NewSwapper; the owner
// calls TickNow at points of its choosing, keeping benchmarks and tests
// deterministic — no host timer races the measured run).
type Swapper struct {
	h  *Heap
	th *sgx.Thread
	//eleos:lockorder 1
	mu sync.Mutex // serializes ticks (background loop vs TickNow)

	stop chan struct{} // nil in manual mode
	done sync.WaitGroup
}

// freePoolFraction is the share of EPC++ the swapper keeps free.
const freePoolFraction = 32 // 1/32 ≈ 3%

// NewSwapper creates a manual-mode swapper: no background goroutine,
// ticks happen only when the owner calls TickNow.
func (h *Heap) NewSwapper() *Swapper {
	return &Swapper{h: h, th: h.encl.NewThread()}
}

// StartSwapper launches the background swapper with the given wall-clock
// polling interval. The returned Swapper must be stopped before the
// heap's enclave is destroyed.
func (h *Heap) StartSwapper(interval time.Duration) *Swapper {
	s := h.NewSwapper()
	s.stop = make(chan struct{})
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		//eleos:allow wallclock -- StartSwapper IS the wall-clock mode; deterministic runs use NewSwapper+TickNow
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.TickNow()
			}
		}
	}()
	return s
}

// TickNow runs one synchronous swapper tick: balloon EPC++ against the
// driver-reported PRM share, then top up the free frame pool. Safe to
// call concurrently with application faults and with the background
// loop (ticks serialize).
func (s *Swapper) TickNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.th.Enter()
	// Best effort: a transiently pinned frame may block a shrink; the
	// next tick retries.
	_ = s.h.BalloonTick(s.th)
	s.h.ReclaimFreePool(s.th, s.h.ActiveFrames()/freePoolFraction)
	s.th.Exit()
}

// Stop terminates the background loop and waits for it to finish; a
// no-op for manual-mode swappers.
func (s *Swapper) Stop() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	s.done.Wait()
	s.stop = nil
}
