package eleos

import (
	"fmt"
	"reflect"
	"testing"
)

// Fleet ballooning's public-stack contracts: a runtime built without
// WithFleetBalloon exposes no controller and a zero Fleet stats branch,
// and a fleet-enabled runtime's decision trace is deterministic through
// the full wiring — NewEnclave registration, Ctx.Pump, the driver share
// table, and Destroy unregistration.

func TestFleetDisabledSurface(t *testing.T) {
	rt, err := NewRuntime(WithMachine(MachineConfig{UsablePRMBytes: 8 << 20}), WithCATWays(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Fleet() != nil {
		t.Fatal("Fleet() non-nil without WithFleetBalloon")
	}
	if st := rt.Stats().Fleet; st.Enabled || st.Epochs != 0 || len(st.Tenants) != 0 {
		t.Fatalf("fleet stats on a fleet-less runtime: %+v", st)
	}
	if rt.Platform().Driver.EPCShares() != nil {
		t.Fatal("share table installed without a fleet controller")
	}
}

// fleetRuntimeTraceFingerprint pins the runtime-wired fleet
// controller's decision sequence below.
const fleetRuntimeTraceFingerprint uint64 = 0x2990d00da606a986

// The public mirror of internal/fleet's determinism test: one hot and
// one idle tenant under a contended PRM, driven identically twice, must
// produce byte-equal decision traces and steer the driver share table
// toward the hot tenant.
func TestFleetRuntimeTraceDeterministic(t *testing.T) {
	run := func() ([]FleetDecision, string) {
		rt, err := NewRuntime(
			WithMachine(MachineConfig{UsablePRMBytes: 2 << 20}), // 512 frames
			WithCATWays(0),
			WithFleetBalloon(FleetPolicy{EpochCycles: 200_000}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		mk := func() (*Enclave, *Ctx) {
			encl, err := rt.NewEnclave(EnclaveConfig{
				PageCacheBytes: 1 << 20,
				Heap:           HeapConfig{BackingBytes: 16 << 20},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := encl.NewContext()
			return encl, ctx
		}
		hot, hctx := mk()
		defer hot.Destroy()
		defer hctx.Close()
		idle, ictx := mk()
		defer idle.Destroy()
		defer ictx.Close()

		p, err := hctx.Malloc(4 << 20)
		if err != nil {
			t.Fatal(err)
		}
		chunk := make([]byte, 16<<10)
		for round := 0; round < 6; round++ {
			for off := uint64(0); off+uint64(len(chunk)) <= 4<<20; off += uint64(len(chunk)) {
				if err := p.WriteAt(off, chunk); err != nil {
					t.Fatal(err)
				}
				hctx.Pump()
			}
		}
		st := rt.Stats().Fleet
		return rt.Fleet().Trace(), fmt.Sprintf("epochs=%d rebalances=%d skips=%d",
			st.Epochs, st.Rebalances, st.Skips)
	}
	trace1, sum1 := run()
	trace2, sum2 := run()
	if sum1 != sum2 {
		t.Fatalf("counter summaries diverge: %s vs %s", sum1, sum2)
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("decision traces diverge between identical runs:\n run1: %+v\n run2: %+v", trace1, trace2)
	}
	if got := traceFingerprint(trace1); got != fleetRuntimeTraceFingerprint {
		t.Fatalf("decision trace fingerprint %#x, want %#x (%s)", got, fleetRuntimeTraceFingerprint, sum1)
	}
	var rebalanced *FleetDecision
	for i := range trace1 {
		if trace1[i].Rebalanced {
			rebalanced = &trace1[i]
		}
	}
	if rebalanced == nil {
		t.Fatalf("drive produced no rebalance: %s", sum1)
	}
	last := rebalanced.Tenants
	if len(last) != 2 || last[0].ShareFrames <= last[1].ShareFrames {
		t.Fatalf("shares not steered toward the hot tenant: %+v", last)
	}
}
