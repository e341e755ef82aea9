package bench

import (
	"fmt"

	"eleos"
	"eleos/internal/report"
)

func init() {
	register("consolidation",
		"Enclave consolidation: 3 enclaves x 1 service vs 1 enclave x 3 services",
		runConsolidation)
}

// The consolidation experiment (after Occlum's multi-tenancy argument,
// arXiv:2001.07450, applied to the Eleos runtime): the three evaluation
// servers run either as three single-service enclaves or as three
// carved services of ONE enclave, under the same total PRM budget and
// the same per-service EPC++ share. Table 1 shows per-service cost is
// deployment-independent — heap domains keep paging private and the
// shared engine keeps doorbells attributed — while consolidation
// spends one enclave's fixed PRM overhead instead of three. Table 2
// prices the call mechanisms consolidation unlocks: an intra-enclave
// CrossCall against the exit-less RPC and OCALL a cross-enclave hop
// would need.

// consSvcEPC is each service's EPC++ carve: 6 MiB (1536 frames), small
// enough that mckv and faceverify page against their domains.
const consSvcEPC = 6 << 20

// consSlackPages is the root tenant's reserve outside the carves.
const consSlackPages = 16

// consService is one tenant and its request count. Building and
// loading it (setup) stays outside the measurement because enclave
// creation leaves the paging driver's serialized-service horizon far
// ahead of a fresh thread's clock, so the first hardware fault after
// setup pays a queueing charge proportional to total enclave size —
// a fixed deployment cost, not a per-request one (the table's last
// column reports it separately).
type consService struct {
	spec tenantSpec
	ops  int
}

func consServices(rc RunConfig) []consService {
	kvOps := rc.Ops / 25
	if kvOps < 1500 {
		kvOps = 1500
	}
	faceOps := rc.Ops / 500
	if faceOps < 100 {
		faceOps = 100
	}
	return []consService{
		{tenantSpec{kind: tenantMckv, bytes: 8 << 20, items: 2000, value: 256}, kvOps},
		{tenantSpec{kind: tenantPserver, bytes: 4 << 20}, kvOps},
		{tenantSpec{kind: tenantFace, items: 48}, faceOps}, // 48 x 232 KiB descriptors ~ 11 MiB vs the 6 MiB carve
	}
}

// consOutcome is one service's measured run in one deployment.
type consOutcome struct {
	setup     uint64 // store build + load, unmeasured deployment cost
	cycles    uint64 // serving-loop cycles
	doorbells uint64
	faults    uint64
}

// consMeasure builds one tenant's server on its service (setup) and
// then measures the serving loop: cycle, doorbell and major-fault
// deltas bracket the serving loop only.
func consMeasure(rt *eleos.Runtime, svc *eleos.Service, s consService) (consOutcome, error) {
	ctx := svc.NewContext()
	defer ctx.Close()
	s0 := ctx.Cycles()
	gen := s.spec.stream()
	tn, err := newTenant(rt, ctx, s.spec, svc.Domain(), svc.IOGroup(), gen)
	if err != nil {
		return consOutcome{}, fmt.Errorf("%s: %w", s.spec.name(), err)
	}
	defer tn.close()
	c0 := ctx.Cycles()
	d0 := svc.IOGroup().Stats().Doorbells
	f0 := svc.Stats().Heap.MajorFaults
	for n := 0; n < s.ops; n++ {
		if err := tn.serve(gen.Next()); err != nil {
			return consOutcome{}, fmt.Errorf("%s: %w", s.spec.name(), err)
		}
	}
	if err := tn.flush(); err != nil {
		return consOutcome{}, fmt.Errorf("%s: %w", s.spec.name(), err)
	}
	return consOutcome{
		setup:     c0 - s0,
		cycles:    ctx.Cycles() - c0,
		doorbells: svc.IOGroup().Stats().Doorbells - d0,
		faults:    svc.Stats().Heap.MajorFaults - f0,
	}, nil
}

// consSeparate: one enclave per service, each with the service's EPC++
// share plus root slack.
func consSeparate(rc RunConfig) (map[string]consOutcome, error) {
	rt, err := eleos.NewRuntime(eleos.WithRPCWorkers(1))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	out := make(map[string]consOutcome)
	for _, s := range consServices(rc) {
		encl, err := rt.NewEnclave(eleos.EnclaveConfig{
			PageCacheBytes: consSvcEPC + consSlackPages*4096,
		})
		if err != nil {
			return nil, err
		}
		svc, err := encl.NewService(s.spec.name(), eleos.WithServiceEPC(consSvcEPC))
		if err != nil {
			return nil, err
		}
		o, err := consMeasure(rt, svc, s)
		if err != nil {
			return nil, err
		}
		out[s.spec.name()] = o
		encl.Destroy()
	}
	return out, nil
}

// consConsolidated: ONE enclave hosting all three services on carved
// domains, same per-service EPC++ share.
func consConsolidated(rc RunConfig) (map[string]consOutcome, error) {
	rt, err := eleos.NewRuntime(eleos.WithRPCWorkers(1))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	encl, err := rt.NewEnclave(eleos.EnclaveConfig{
		PageCacheBytes: 3*consSvcEPC + consSlackPages*4096,
	})
	if err != nil {
		return nil, err
	}
	defer encl.Destroy()
	svcs := make(map[string]*eleos.Service)
	for _, s := range consServices(rc) {
		svc, err := encl.NewService(s.spec.name(), eleos.WithServiceEPC(consSvcEPC))
		if err != nil {
			return nil, err
		}
		svcs[s.spec.name()] = svc
	}
	out := make(map[string]consOutcome)
	for _, s := range consServices(rc) {
		o, err := consMeasure(rt, svcs[s.spec.name()], s)
		if err != nil {
			return nil, err
		}
		out[s.spec.name()] = o
	}
	return out, nil
}

// consCrossCallCycles measures the intra-enclave CrossCall against the
// mechanisms a cross-enclave hop would need: a synchronous exit-less
// RPC through an untrusted worker, and a classic OCALL exit.
func consCrossCallCycles(calls int) (*report.Table, error) {
	rt, err := eleos.NewRuntime(eleos.WithRPCWorkers(1))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	encl, err := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	defer encl.Destroy()
	caller, err := encl.NewService("caller", eleos.WithServiceEPC(256<<10))
	if err != nil {
		return nil, err
	}
	callee, err := encl.NewService("callee", eleos.WithServiceEPC(256<<10))
	if err != nil {
		return nil, err
	}
	ctx := caller.NewContext()
	defer ctx.Close()

	noop := func(*eleos.Ctx) {}
	hostNoop := func(*eleos.HostCtx) {}
	measure := func(f func() error) (float64, error) {
		start := ctx.Cycles()
		for i := 0; i < calls; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return perOp(ctx.Cycles()-start, calls), nil
	}
	cross, err := measure(func() error { return ctx.CrossCall(callee, noop) })
	if err != nil {
		return nil, err
	}
	rpcCall, err := measure(func() error { ctx.Exitless(hostNoop); return nil })
	if err != nil {
		return nil, err
	}
	ocall, err := measure(func() error { ctx.OCall(hostNoop); return nil })
	if err != nil {
		return nil, err
	}

	t := report.New("Service-to-service call mechanisms (no-op callee)",
		"mechanism", "cycles/call", "vs CrossCall")
	t.Note = fmt.Sprintf("%d calls each; CrossCall stays inside the enclave, the other two are what a cross-enclave hop costs at minimum", calls)
	t.AddRow("CrossCall (same enclave)", cross, 1.0)
	t.AddRow("exit-less RPC (cross enclave)", rpcCall, rpcCall/cross)
	t.AddRow("ocall (cross enclave)", ocall, ocall/cross)
	return t, nil
}

func runConsolidation(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	sep, err := consSeparate(rc)
	if err != nil {
		return nil, err
	}
	con, err := consConsolidated(rc)
	if err != nil {
		return nil, err
	}

	t := report.New("Per-service cost: 3 enclaves x 1 service vs 1 enclave x 3 services (equal per-service EPC++)",
		"service", "requests", "3x1 cyc/req", "1x3 cyc/req", "1x3/3x1",
		"3x1 db/req", "1x3 db/req", "3x1 faults", "1x3 faults",
		"3x1 setup Mcyc", "1x3 setup Mcyc")
	t.Note = fmt.Sprintf("per-service EPC++ carve %d MiB both ways; total enclave pages 3x(%d MiB + slack) vs 1x(%d MiB + slack); setup (store build + load) is the one-time deployment cost, paid per enclave in 3x1 and mostly by the first tenant in 1x3",
		consSvcEPC>>20, consSvcEPC>>20, 3*consSvcEPC>>20)
	for _, s := range consServices(rc) {
		a, b := sep[s.spec.name()], con[s.spec.name()]
		t.AddRow(s.spec.name(), s.ops,
			perOp(a.cycles, s.ops), perOp(b.cycles, s.ops),
			float64(b.cycles)/float64(a.cycles),
			perOp(a.doorbells, s.ops), perOp(b.doorbells, s.ops),
			a.faults, b.faults,
			float64(a.setup)/1e6, float64(b.setup)/1e6)
	}

	calls := rc.Ops / 50
	if calls < 1000 {
		calls = 1000
	}
	ct, err := consCrossCallCycles(calls)
	if err != nil {
		return nil, err
	}

	return &Result{
		ID:     "consolidation",
		Title:  "Enclave consolidation: 3 enclaves x 1 service vs 1 enclave x 3 services",
		Tables: []*report.Table{t, ct},
	}, nil
}
