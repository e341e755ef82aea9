package fleet

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"eleos/internal/phys"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// fleetEnv is a small machine with two tenant enclaves: heap a is the
// hot tenant the scripted load hammers, heap b stays idle.
type fleetEnv struct {
	plat *sgx.Platform
	a, b *suvm.Heap
	// tha is the driving thread (in a's enclave); its clock is the
	// epoch timebase.
	tha *sgx.Thread
	c   *Controller
}

func newFleetEnv(t *testing.T, pol Policy) *fleetEnv {
	t.Helper()
	// 2 MiB PRM = 512 frames; each tenant configured for a 1 MiB EPC++
	// (256 frames), so PRM is fully committed and shares only move by
	// taking frames from the colder tenant.
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (*suvm.Heap, *sgx.Thread) {
		encl, err := plat.NewEnclave()
		if err != nil {
			t.Fatal(err)
		}
		th := encl.NewThread()
		th.Enter()
		h, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 1 << 20, BackingBytes: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return h, th
	}
	a, tha := mk()
	b, thb := mk()
	thb.Exit()
	c, err := New(plat.Driver, pol)
	if err != nil {
		t.Fatal(err)
	}
	c.Register(a)
	c.Register(b)
	return &fleetEnv{plat: plat, a: a, b: b, tha: tha, c: c}
}

// drive runs the scripted load: rounds of writes over a working set 4x
// tenant a's EPC++ (every round faults), pumping after each chunk.
func (e *fleetEnv) drive(t *testing.T, rounds int) {
	t.Helper()
	p, err := e.a.Malloc(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	for r := 0; r < rounds; r++ {
		for off := uint64(0); off+uint64(len(buf)) <= p.Size(); off += uint64(len(buf)) {
			if err := p.WriteAt(e.tha, off, buf); err != nil {
				t.Fatal(err)
			}
			e.c.Pump(e.tha)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := New(nil, Policy{}); err == nil {
		t.Fatal("nil driver accepted")
	}
	plat, err := sgx.NewPlatform(sgx.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(plat.Driver, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.clock.Every; got != 1_000_000 {
		t.Fatalf("zero EpochCycles became an epoch of %d cycles, want 1e6", got)
	}
}

func TestFleetRebalancesTowardDemand(t *testing.T) {
	e := newFleetEnv(t, Policy{EpochCycles: 200_000})
	e.drive(t, 6)
	st := e.c.Stats()
	if !st.Enabled || st.Epochs == 0 {
		t.Fatalf("controller never took an epoch: %+v", st)
	}
	if st.Rebalances == 0 {
		t.Fatalf("controller never rebalanced: %+v", st)
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("tenants: %+v", st.Tenants)
	}
	hot, idle := st.Tenants[0], st.Tenants[1]
	if hot.ShareFrames <= idle.ShareFrames {
		t.Fatalf("hot tenant share %d not above idle tenant's %d", hot.ShareFrames, idle.ShareFrames)
	}
	// The hot tenant's share saturates at its useful cap (4/3 of its
	// configured EPC++), and the installed driver table matches.
	shares := e.plat.Driver.EPCShares()
	if shares == nil {
		t.Fatal("no share table installed in the driver")
	}
	if got := shares[hot.Enclave]; got != uint64(hot.ShareFrames)*phys.PageSize {
		t.Fatalf("driver table %d bytes for hot tenant, controller says %d frames", got, hot.ShareFrames)
	}
	// The rebalance actually ballooned the heaps: the idle tenant's
	// EPC++ shrank below its configured capacity.
	if idle.ActiveFrames >= idle.CapacityFrames {
		t.Fatalf("idle tenant still holds all %d of %d frames", idle.ActiveFrames, idle.CapacityFrames)
	}
	if hot.Skips != 0 || idle.Skips != 0 {
		t.Fatalf("resizes were skipped: %+v", st.Tenants)
	}
}

// TestFleetUnregisterDropsShare checks a destroyed tenant leaves the
// driver table immediately.
func TestFleetUnregisterDropsShare(t *testing.T) {
	e := newFleetEnv(t, Policy{EpochCycles: 200_000})
	e.drive(t, 4)
	idleID := e.b.Enclave().ID()
	if _, ok := e.plat.Driver.EPCShares()[idleID]; !ok {
		t.Fatal("idle tenant missing from the installed table")
	}
	e.c.Unregister(e.b)
	if _, ok := e.plat.Driver.EPCShares()[idleID]; ok {
		t.Fatal("unregistered tenant still in the driver table")
	}
	st := e.c.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("tenants after unregister: %+v", st.Tenants)
	}
}

// fleetTraceFingerprint pins the decision sequence of a 4-round drive.
const fleetTraceFingerprint uint64 = 0x9ffdc3766c7f0374

// traceFingerprint hashes the full %+v rendering of a decision trace,
// so a pinned value catches a change to any field of any decision, not
// just disagreement between two runs.
func traceFingerprint(trace any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", trace)
	return h.Sum64()
}

// TestFleetTraceDeterministic pins the determinism contract: two runs
// of the identical single-threaded load produce bit-identical decision
// traces.
func TestFleetTraceDeterministic(t *testing.T) {
	run := func() []Decision {
		e := newFleetEnv(t, Policy{EpochCycles: 200_000})
		e.drive(t, 4)
		return e.c.Trace()
	}
	t1, t2 := run(), run()
	if len(t1) == 0 {
		t.Fatal("empty trace")
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("traces diverge:\nrun1: %+v\nrun2: %+v", t1, t2)
	}
	if got := traceFingerprint(t1); got != fleetTraceFingerprint {
		t.Fatalf("decision trace fingerprint %#x, want %#x (%d decisions)", got, fleetTraceFingerprint, len(t1))
	}
	// The trace records real decisions: at least one rebalanced epoch
	// with per-tenant shares.
	var rebalanced bool
	for _, d := range t1 {
		if d.Rebalanced {
			rebalanced = true
			if len(d.Tenants) != 2 {
				t.Fatalf("decision missing tenants: %+v", d)
			}
		}
	}
	if !rebalanced {
		t.Fatal("trace has no rebalanced epoch")
	}
}

// A returned trace is the caller's: writing through its Tenants slices
// must not reach the controller's record.
func TestFleetTraceIsDeepCopy(t *testing.T) {
	e := newFleetEnv(t, Policy{EpochCycles: 200_000})
	e.drive(t, 1)
	got := e.c.Trace()
	if len(got) == 0 || len(got[0].Tenants) == 0 {
		t.Fatalf("trace has no tenant decisions: %+v", got)
	}
	want := got[0].Tenants[0]
	got[0].Tenants[0].ShareFrames = -1
	got[0].Epoch = 0
	again := e.c.Trace()
	if again[0].Tenants[0] != want || again[0].Epoch != 1 {
		t.Fatalf("writing the returned trace changed the controller's: %+v", again[0])
	}
}
