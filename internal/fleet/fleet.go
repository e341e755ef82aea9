// Package fleet is the fleet-scale adaptive EPC++ balloon controller: a
// deterministic epoch controller on the internal/epoch kernel, like
// internal/tune, that continuously rebalances PRM shares across a fleet
// of enclaves from live demand signals instead of the driver's static
// even split. The paper's ballooning (§3.3, Fig 9) makes every enclave
// chase the even-split ioctl; with mixed tenants under shifting load
// that starves the hot tenant while cold tenants hoard EPC++ — the
// demand-driven sizing argument of "Adaptive and Efficient Dynamic
// Memory Management for Hardware Enclaves" (PAPERS.md, arXiv
// 2504.16251).
//
// Each epoch the controller samples every registered heap's
// BalloonSignal (the fault/coalesce/wait/evict-scan counters), folds the
// deltas into one demand figure per tenant, and computes a share
// vector: a floor per tenant, the rest of usable PRM split
// demand-proportionally, capped at what each heap can actually use.
// After grow/shrink hysteresis agrees, it installs the vector through
// the driver's SetEPCShares ioctl and then drives each changed heap
// through BalloonTarget/ResizeTo + ReclaimFreePool on a
// controller-owned per-tenant thread — resizes run as exclusive phases
// of each heap's fault pipeline while the other tenants keep faulting.
//
// Every decision input is a virtual-cycle counter or a deterministic
// integer derived from one; leftover frames from the proportional split
// are placed in fixed registration order. A single-threaded drive
// therefore produces a bit-identical decision trace on every run — the
// same contract internal/tune pins, tested the same way.
//
// Trust domain: trusted — Pump runs on enclave serving threads, touches
// the suvm facade and the platform driver only.
//
//eleos:trusted
//eleos:deterministic
package fleet

import (
	"fmt"
	"sync"

	"eleos/internal/epoch"
	"eleos/internal/phys"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// Demand weighting: one scalar per tenant per epoch, formed from the
// BalloonSignal deltas. Faults dominate (they are the direct cost of a
// too-small EPC++), coalesced faults count the pressure multi-threaded
// tenants hide behind the winner's page-in, wait cycles and evict-scan
// work are divided down to comparable magnitude. The weights only need
// to rank tenants against each other.
const (
	demandFaultWeight    = 4
	demandCoalesceWeight = 2
	demandWaitShift      = 10 // FaultWaitCycles / 1024
	demandScanShift      = 3  // EvictScanFrames / 8

	// demandDecayShift smooths the per-epoch scalar asymmetrically:
	// demand rises to a new peak instantly but decays by only 1/4 per
	// epoch. Raw fault counts are self-extinguishing — the epoch after a
	// grown tenant's working set finally fits, its faults stop, and a
	// proportional split over raw demand would immediately confiscate
	// the very frames that satisfied it, re-faulting the working set in
	// an endless grow/shrink oscillation. The slow decay keeps a
	// recently-hot tenant's claim alive until a competitor shows
	// *sustained* higher demand, so phase shifts converge in one or two
	// rebalances instead of ping-ponging every few epochs.
	demandDecayShift = 2
)

// freePoolFraction mirrors suvm's swapper constant: after a resize the
// controller tops each changed heap's free pool up to 1/32 of its
// active frames, moving eviction work off the tenants' fault paths.
const freePoolFraction = 32

// The rebalance gates. Fixed constants, not policy knobs:
//
//   - minShareFrames is each tenant's PRM share floor in 4 KiB frames
//     (clamped down when the fleet outgrows the machine). BalloonTarget
//     keeps 25% headroom, so it must stay ≥ 8 or a share could balloon
//     a heap under its own 4-frame floor.
//   - deadbandFrac is the relative share change below which a tenant's
//     deviation is ignored: rebalances fire only for shifts worth the
//     exclusive resize phases they cost.
//   - minDemand is the raw per-epoch demand some tenant must reach
//     before a rebalance can fire (16 major faults per epoch).
//     Fault-driven demand is self-extinguishing: the tenant the last
//     rebalance satisfied goes quiet while everyone's residual fault
//     noise keeps trickling, so without an absolute activity gate the
//     proportional split slowly confiscates the winner's frames until it
//     thrashes again, oscillating forever. Below the gate the installed
//     shares are simply kept.
//   - hysteresis consecutive deviating epochs must agree before a
//     rebalance that only grows shares is applied; shrinkHysteresis
//     gates rebalances that take EPC++ away from any tenant — scale up
//     fast, down slowly.
const (
	minShareFrames   = 64
	deadbandFrac     = 0.10
	minDemand        = 64
	hysteresis       = epoch.DefaultHysteresis
	shrinkHysteresis = 2 * hysteresis
)

// Policy configures the controller.
type Policy struct {
	// EpochCycles is the decision period in virtual cycles of the
	// pumping thread (zero selects epoch.DefaultEvery, 1e6).
	EpochCycles uint64
}

// tenant is one registered heap with its controller-side state.
type tenant struct {
	h  *suvm.Heap
	id int // enclave id, the driver share-table key
	// th is the controller-owned apply thread: resizes and reclaims are
	// charged to it, off the tenant's serving threads.
	th *sgx.Thread

	prev        suvm.BalloonSignal
	shareFrames int    // current installed PRM share (4 KiB frames); 0 before the first rebalance
	demand      uint64 // smoothed demand: instant rise, 1/4 decay per epoch
	skips       uint64
}

// TenantDecision is one tenant's slice of an epoch decision.
type TenantDecision struct {
	// Enclave is the tenant's enclave id (the share-table key).
	Enclave int
	// Demand is the epoch's weighted demand scalar.
	Demand uint64
	// ShareFrames is the PRM share the controller wants for the tenant
	// (4 KiB frames); TargetBytes the EPC++ capacity that share balloons
	// to (BalloonTarget of the share).
	ShareFrames int
	TargetBytes uint64
	// Applied is set when this epoch resized the tenant's heap; Skipped
	// when the resize was attempted and refused (pinned frame).
	Applied bool
	Skipped bool
}

// Decision is one epoch's outcome. Derived from virtual-cycle counters
// and fixed-order integer arithmetic only, so a single-driver run
// yields an identical decision sequence every time.
type Decision struct {
	// Epoch is the 1-based decision ordinal; Cycles the pumping
	// thread's clock at the boundary.
	Epoch  uint64
	Cycles uint64
	// Votes is the rebalance vote count after this epoch; Rebalanced is
	// set when this epoch installed a new share table.
	Votes      int
	Rebalanced bool
	// Tenants is the per-tenant breakdown, in registration order.
	Tenants []TenantDecision
}

// TenantStats is one tenant's slice of a controller snapshot.
type TenantStats struct {
	Enclave        int
	ShareFrames    int
	ActiveFrames   int
	CapacityFrames int
	Demand         uint64
	// Skips counts refused resizes (pinned frames) for this tenant.
	Skips uint64
}

// Stats is a snapshot of the controller.
type Stats struct {
	// Enabled distinguishes a live controller from the zero value the
	// unified RuntimeStats tree reports when fleet ballooning is off.
	Enabled bool
	// Epochs counts decisions taken, Rebalances the ones that installed
	// a new share table, Skips the refused resizes across all tenants.
	Epochs     uint64
	Rebalances uint64
	Skips      uint64
	// Tenants is the per-tenant state, in registration order.
	Tenants []TenantStats
}

// Controller is the fleet balloon feedback loop. One controller owns
// one driver's share table; any number of serving threads may Pump it
// (an internal mutex serializes epochs), but determinism of the
// decision sequence is guaranteed only for a single pumping thread.
type Controller struct {
	driver *sgx.Driver

	// mu serializes epoch evaluation. Epochs call ResizeTo /
	// ReclaimFreePool (suvm epoch, rank 10) and SetEPCShares (driver,
	// rank 110) while holding it, so it ranks below the whole suvm/sgx
	// order.
	//
	//eleos:lockorder 4
	mu sync.Mutex

	tenants []*tenant

	clock      epoch.Clock
	rebalances uint64
	votes      epoch.Streak[struct{}]

	trace epoch.Trace[Decision]
}

// New builds a controller over the platform's driver. A zero
// EpochCycles takes the default.
func New(d *sgx.Driver, pol Policy) (*Controller, error) {
	if d == nil {
		return nil, fmt.Errorf("fleet: nil driver")
	}
	if pol.EpochCycles == 0 {
		pol.EpochCycles = epoch.DefaultEvery
	}
	return &Controller{driver: d, clock: epoch.Clock{Every: pol.EpochCycles}}, nil
}

// Register adds a heap to the fleet. The controller creates its own
// thread in the heap's enclave so resize write-backs are charged off
// the tenant's serving threads. Call during setup (the runtime does it
// from NewEnclave); the tenant joins the next epoch's sample.
func (c *Controller) Register(h *suvm.Heap) {
	t := &tenant{h: h, id: h.Enclave().ID(), th: h.Enclave().NewThread()}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.prev = h.BalloonSignal()
	c.tenants = append(c.tenants, t)
}

// Unregister removes a heap from the fleet (the runtime calls it from
// Enclave.Destroy, before the heap quiesces). The tenant's share-table
// entry is dropped immediately so the driver stops arbitrating for a
// dying enclave.
func (c *Controller) Unregister(h *suvm.Heap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range c.tenants {
		if t.h == h {
			c.tenants = append(c.tenants[:i], c.tenants[i+1:]...)
			break
		}
	}
	c.pushSharesLocked()
}

// pushSharesLocked installs the current per-tenant shares as the
// driver's share table (or resets to the even split while no rebalance
// has assigned shares yet).
func (c *Controller) pushSharesLocked() {
	table := make(map[int]uint64, len(c.tenants))
	for _, t := range c.tenants {
		if t.shareFrames > 0 {
			table[t.id] = uint64(t.shareFrames) * phys.PageSize
		}
	}
	c.driver.SetEPCShares(table)
}

// Pump gives the controller a chance to act. Cheap off-epoch (one clock
// comparison under the mutex); on an epoch boundary it samples every
// tenant, votes, and applies any rebalance. Returns true when an epoch
// fired. th is the pumping thread; its virtual clock is the epoch
// timebase.
func (c *Controller) Pump(th *sgx.Thread) bool {
	now := th.T.Cycles()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch tick, _ := c.clock.Tick(now); tick {
	case epoch.Baseline:
		for _, t := range c.tenants {
			t.prev = t.h.BalloonSignal()
		}
	case epoch.Fire:
		c.decide(now)
		return true
	}
	return false
}

// demandOf folds one epoch's signal delta into the tenant's demand
// scalar. A counter that went backwards means the heap's stats were
// reset since the last epoch (a benchmark warm-up boundary); the
// post-reset value is the whole delta then, not an underflowed uint64.
func demandOf(prev, cur suvm.BalloonSignal) uint64 {
	return demandFaultWeight*delta(prev.MajorFaults, cur.MajorFaults) +
		demandCoalesceWeight*delta(prev.FaultsCoalesced, cur.FaultsCoalesced) +
		delta(prev.FaultWaitCycles, cur.FaultWaitCycles)>>demandWaitShift +
		delta(prev.EvictScanFrames, cur.EvictScanFrames)>>demandScanShift
}

func delta(prev, cur uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// capFrames is the largest useful PRM share for a heap: the share whose
// BalloonTarget reaches the configured EPC++ capacity (4/3 of it, for
// the 25% headroom), in 4 KiB frames. Granting more would only idle.
func capFrames(sig suvm.BalloonSignal) int {
	capBytes := uint64(sig.CapacityFrames) * sig.PageBytes
	shareBytes := capBytes + capBytes/3 + phys.PageSize
	return int((shareBytes + phys.PageSize - 1) / phys.PageSize)
}

// decide runs one epoch with c.mu held: the demand signals, the share
// vector, the rebalance vote and, when it fires, the rebalance.
func (c *Controller) decide(now uint64) {
	n := len(c.tenants)
	if n == 0 {
		return
	}
	sigs := make([]suvm.BalloonSignal, n)
	demands := make([]uint64, n)
	var totalDemand, maxRaw uint64
	for i, t := range c.tenants {
		sigs[i] = t.h.BalloonSignal()
		raw := demandOf(t.prev, sigs[i])
		t.prev = sigs[i]
		if raw > maxRaw {
			maxRaw = raw
		}
		if decayed := t.demand - t.demand>>demandDecayShift; raw > decayed {
			t.demand = raw
		} else {
			t.demand = decayed
		}
		demands[i] = t.demand
		totalDemand += demands[i]
	}

	want := c.sharesFor(sigs, demands, totalDemand)

	// Vote: a rebalance is worth its exclusive resize phases only when
	// some tenant is actively suffering (raw demand at the minDemand
	// gate) AND some tenant's share moves beyond the deadband. Epochs
	// that would shrink any tenant need shrinkHysteresis consecutive
	// deviating epochs; grow-only epochs (slack from a destroyed
	// tenant) just hysteresis. Both kinds count toward one streak.
	deviates, shrinks := false, false
	if maxRaw >= minDemand {
		for i, t := range c.tenants {
			cur := t.shareFrames
			band := int(deadbandFrac * float64(cur))
			if band < 1 {
				band = 1
			}
			switch {
			case want[i] > cur+band:
				deviates = true
			case want[i] < cur-band:
				deviates = true
				if cur > 0 {
					shrinks = true
				}
			}
		}
	}
	rebalanced := false
	if !deviates {
		c.votes.Reset()
	} else {
		need := hysteresis
		if shrinks {
			need = shrinkHysteresis
		}
		rebalanced = c.votes.Vote(struct{}{}, need)
	}

	dec := Decision{Epoch: c.clock.Epochs(), Cycles: now, Votes: c.votes.Count(), Rebalanced: rebalanced,
		Tenants: make([]TenantDecision, n)}
	for i, t := range c.tenants {
		share := t.shareFrames
		if rebalanced {
			share = want[i]
		}
		dec.Tenants[i] = TenantDecision{
			Enclave:     t.id,
			Demand:      demands[i],
			ShareFrames: share,
			TargetBytes: t.h.BalloonTarget(uint64(share) * phys.PageSize),
		}
	}

	if rebalanced {
		c.rebalances++
		c.applyLocked(want, dec.Tenants)
	}

	c.trace.Add(dec)
}

// sharesFor computes the desired share vector: a floor per tenant, the
// remaining usable PRM split demand-proportionally (evenly when the
// fleet is idle), capped at each heap's useful maximum, leftovers
// placed in registration order.
func (c *Controller) sharesFor(sigs []suvm.BalloonSignal, demands []uint64, totalDemand uint64) []int {
	n := len(c.tenants)
	budget := c.driver.NumFrames()
	floor := minShareFrames
	if floor*n > budget {
		floor = budget / n
	}
	caps := make([]int, n)
	want := make([]int, n)
	for i := range c.tenants {
		caps[i] = capFrames(sigs[i])
		if caps[i] < floor {
			caps[i] = floor
		}
		want[i] = floor
	}
	spare := budget - floor*n

	// Demand-proportional split of the spare (even when idle).
	assigned := 0
	for i := range c.tenants {
		var extra int
		if totalDemand == 0 {
			extra = spare / n
		} else {
			extra = int(uint64(spare) * demands[i] / totalDemand)
		}
		if want[i]+extra > caps[i] {
			extra = caps[i] - want[i]
		}
		want[i] += extra
		assigned += extra
	}
	// Leftovers (integer truncation, cap clipping) go to uncapped
	// tenants in registration order — deterministic by construction.
	for rem := spare - assigned; rem > 0; {
		placed := false
		for i := range c.tenants {
			if want[i] < caps[i] {
				give := caps[i] - want[i]
				if give > rem {
					give = rem
				}
				want[i] += give
				rem -= give
				placed = true
				if rem == 0 {
					break
				}
			}
		}
		if !placed {
			break // every tenant capped; the driver keeps the slack
		}
	}
	return want
}

// applyLocked installs the new share table and balloons every tenant
// whose share changed: the table first (so the driver arbitrates
// against the new shares while resizes run), then shrinks (returning
// frames to the driver), then grows. Each tenant's resize and reclaim
// run on the controller's per-tenant thread as exclusive phases of that
// heap's fault pipeline; the other tenants keep faulting throughout.
func (c *Controller) applyLocked(want []int, decs []TenantDecision) {
	old := make([]int, len(c.tenants))
	for i, t := range c.tenants {
		old[i] = t.shareFrames
		t.shareFrames = want[i]
	}
	c.pushSharesLocked()
	for pass := 0; pass < 2; pass++ {
		for i, t := range c.tenants {
			if want[i] == old[i] && old[i] != 0 {
				continue
			}
			target := t.h.BalloonTarget(uint64(want[i]) * phys.PageSize)
			// Shrinks run in pass 0 and grows in pass 1, classified by the
			// heap's actual EPC++ size — not the share history — so the
			// first rebalance cannot grow the hot tenant before the cold
			// tenants have released their frames (transiently pinning the
			// whole PRM).
			sig := t.h.BalloonSignal()
			grow := target > uint64(sig.ActiveFrames)*sig.PageBytes
			if (pass == 0) == grow {
				continue
			}
			t.th.Enter()
			err := t.h.ResizeTo(t.th, target)
			if err == nil {
				sig := t.h.BalloonSignal()
				t.h.ReclaimFreePool(t.th, sig.ActiveFrames/freePoolFraction)
				decs[i].Applied = true
			} else {
				t.skips++
				decs[i].Skipped = true
			}
			t.th.Exit()
		}
	}
}

// Stats returns a snapshot of the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Enabled: true, Epochs: c.clock.Epochs(), Rebalances: c.rebalances}
	for _, t := range c.tenants {
		sig := t.h.BalloonSignal()
		st.Skips += t.skips
		st.Tenants = append(st.Tenants, TenantStats{
			Enclave:        t.id,
			ShareFrames:    t.shareFrames,
			ActiveFrames:   sig.ActiveFrames,
			CapacityFrames: sig.CapacityFrames,
			Demand:         t.demand,
			Skips:          t.skips,
		})
	}
	return st
}

// Trace returns a deep copy of the recorded decision sequence (the
// first 4096 decisions). Two runs of the same single-threaded load
// yield identical traces — the determinism contract the tests pin.
func (c *Controller) Trace() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.trace.Copy()
	for i := range out {
		out[i].Tenants = append([]TenantDecision(nil), out[i].Tenants...)
	}
	return out
}
