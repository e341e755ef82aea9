package bench

import (
	"fmt"

	"eleos"
	"eleos/internal/report"
)

func init() {
	register("fleet",
		"Fleet ballooning: demand-driven PRM shares vs static even split under phase-shifted tenants",
		runFleet)
}

// The fleet-ballooning experiment: N single-service enclaves (the
// paper's multi-enclave deployment) under a PRM that cannot hold every
// working set, with load that shifts between tenants in phases. The
// static arm is the paper's §3.3 policy done right — every EPC++
// ballooned to 3/4 of the driver's even share. The adaptive arm runs
// the same tenants under WithFleetBalloon: the controller samples each
// heap's fault signals, installs demand-proportional shares through
// SetEPCShares, and balloons the heaps to match — so whichever tenant
// the phase makes hot serves from EPC++ while the cold tenants shrink.

const (
	fleetPRM = 24 << 20 // 6144 frames for 3 tenants
	// fleetEvenEPC is the static arm's EPC++: the balloon target of the
	// 8 MiB even share (3/4 of it). The adaptive arm starts at the same
	// size, so the arms differ only in what the controller does next.
	fleetEvenEPC = 6 << 20
	// fleetMaxEPC is the adaptive arm's EPC++ capacity: what a tenant
	// can grow to when the controller concentrates PRM on it.
	fleetMaxEPC = 12 << 20
	// fleetEpochCycles is the controller's decision period; a few
	// hundred requests per epoch at the hot tenants' fault costs.
	fleetEpochCycles = 2_000_000
)

// Working sets are sized to overflow the 6 MiB static EPC++ but fit the
// 12 MiB adaptive capacity: the even split pages every tenant all the
// time, the demand split serves the hot tenant from memory.
var fleetTenants = []tenantSpec{
	{kind: tenantMckv, bytes: 12 << 20, items: 16384, value: 512}, // ~10 MiB of entries
	{kind: tenantPserver, bytes: 8 << 20},
	{kind: tenantFace, items: 40}, // 40 x 232 KiB descriptors ~ 9 MiB
}

// fleetWeights[phase][tenant] is how many requests the tenant serves
// per round in that phase: each phase makes one tenant hot.
// faceverify's requests are an order of magnitude heavier, so its hot
// weight is lower for a comparable phase length.
var fleetWeights = [3][3]int{
	{8, 1, 1},
	{1, 8, 1},
	{1, 1, 4},
}

// fleetPhase is one phase's aggregate outcome in one arm.
type fleetPhase struct {
	cycles uint64 // sum of all tenants' serving cycles
	ops    int    // sum of all tenants' requests
	faults uint64 // sum of all tenants' major faults
}

type fleetOutcome struct {
	phases [3]fleetPhase
	fleet  eleos.FleetStats
}

func runFleetArm(rc RunConfig, adaptive bool) (fleetOutcome, error) {
	var out fleetOutcome
	opts := []eleos.Option{
		eleos.WithRPCWorkers(1),
		eleos.WithMachine(eleos.MachineConfig{UsablePRMBytes: fleetPRM}),
	}
	if adaptive {
		opts = append(opts, eleos.WithFleetBalloon(eleos.FleetPolicy{EpochCycles: fleetEpochCycles}))
	}
	rt, err := eleos.NewRuntime(opts...)
	if err != nil {
		return out, err
	}
	defer rt.Close()

	ctxs := make([]*eleos.Ctx, len(fleetTenants))
	reqs := make([]func() error, len(fleetTenants))
	for i, spec := range fleetTenants {
		epc := uint64(fleetEvenEPC)
		if adaptive {
			epc = fleetMaxEPC
		}
		encl, err := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: epc})
		if err != nil {
			return out, fmt.Errorf("%s: %w", spec.name(), err)
		}
		defer encl.Destroy()
		ctxs[i] = encl.NewContext()
		defer ctxs[i].Close()
		if adaptive {
			// Both arms start at the even-split balloon size; only the
			// controller's decisions differ.
			if err := encl.Heap().ResizeTo(ctxs[i].Thread(), fleetEvenEPC); err != nil {
				return out, fmt.Errorf("%s: presize: %w", spec.name(), err)
			}
		}
		gen := spec.stream()
		tn, err := newTenant(rt, ctxs[i], spec, encl.Heap(), nil, gen)
		if err != nil {
			return out, fmt.Errorf("%s: %w", spec.name(), err)
		}
		defer tn.close()
		reqs[i] = func() error { return tn.serve(gen.Next()) }
	}

	// Warm-up boundary: setup (enclave creation pins whole frame pools,
	// store loads fault in working sets) ran on setup-thread clocks and
	// left the driver's virtual-time queue far ahead of the serving
	// threads. Reset every measured counter and the driver together — the
	// shared-epoch discipline all benchmarks follow — so the phases
	// compare serving work, not leftover clock skew between the arms'
	// different setup costs.
	for _, ctx := range ctxs {
		resetCounters(rt.Platform(), ctx.Thread(), ctx.Enclave().Heap())
	}

	rounds := rc.Ops / 100
	if rounds < 60 {
		rounds = 60
	}
	for phase := 0; phase < 3; phase++ {
		var c0, f0 [3]uint64
		for i, ctx := range ctxs {
			c0[i] = ctx.Cycles()
			f0[i] = ctx.Enclave().Heap().Stats().MajorFaults
		}
		ops := 0
		for r := 0; r < rounds; r++ {
			for i, req := range reqs {
				for k := 0; k < fleetWeights[phase][i]; k++ {
					if err := req(); err != nil {
						return out, fmt.Errorf("%s phase %d: %w", fleetTenants[i].name(), phase, err)
					}
					ops++
				}
				ctxs[i].Pump()
			}
		}
		p := &out.phases[phase]
		p.ops = ops
		for i, ctx := range ctxs {
			p.cycles += ctx.Cycles() - c0[i]
			p.faults += ctx.Enclave().Heap().Stats().MajorFaults - f0[i]
		}
	}
	out.fleet = rt.Stats().Fleet
	return out, nil
}

func runFleet(rc RunConfig) (*Result, error) {
	static, err := runFleetArm(rc, false)
	if err != nil {
		return nil, err
	}
	adaptive, err := runFleetArm(rc, true)
	if err != nil {
		return nil, err
	}

	t := report.New("Phase-shifted tenants: static even split vs adaptive fleet shares (3 enclaves, 24 MiB PRM)",
		"phase (hot tenant)", "requests", "static cyc/req", "adaptive cyc/req", "speedup",
		"static faults", "adaptive faults")
	t.Note = fmt.Sprintf("aggregate over all 3 tenants per phase; every EPC++ starts at %d MiB (the even-split balloon target); the adaptive arm may grow a tenant to %d MiB by shrinking the others", fleetEvenEPC>>20, fleetMaxEPC>>20)
	var sTot, aTot fleetPhase
	for phase := range static.phases {
		s, a := static.phases[phase], adaptive.phases[phase]
		t.AddRow(fleetTenants[phase].name(), s.ops,
			perOp(s.cycles, s.ops), perOp(a.cycles, a.ops),
			float64(s.cycles)/float64(a.cycles),
			s.faults, a.faults)
		sTot.cycles += s.cycles
		sTot.ops += s.ops
		sTot.faults += s.faults
		aTot.cycles += a.cycles
		aTot.ops += a.ops
		aTot.faults += a.faults
	}
	t.AddRow("all phases", sTot.ops,
		perOp(sTot.cycles, sTot.ops), perOp(aTot.cycles, aTot.ops),
		float64(sTot.cycles)/float64(aTot.cycles),
		sTot.faults, aTot.faults)

	ct := report.New("Fleet controller activity (adaptive arm)",
		"tenant", "share frames", "active frames", "capacity frames", "last demand", "skips")
	ct.Note = fmt.Sprintf("epochs %d, rebalances %d, skipped resizes %d; shares are the driver table installed via SetEPCShares at the last rebalance",
		adaptive.fleet.Epochs, adaptive.fleet.Rebalances, adaptive.fleet.Skips)
	for _, ten := range adaptive.fleet.Tenants {
		ct.AddRow(fmt.Sprintf("enclave %d", ten.Enclave),
			ten.ShareFrames, ten.ActiveFrames, ten.CapacityFrames, ten.Demand, ten.Skips)
	}

	return &Result{
		ID:     "fleet",
		Title:  "Fleet ballooning: demand-driven PRM shares vs static even split",
		Tables: []*report.Table{t, ct},
	}, nil
}
