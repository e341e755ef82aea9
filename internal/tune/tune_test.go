package tune_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/tune"
)

func newTuneEnv(t *testing.T) (*sgx.Platform, *rpc.Pool, *exitio.Engine, *sgx.Thread) {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pool := rpc.NewPool(plat, 1, 256)
	pool.Start()
	t.Cleanup(pool.Stop)
	eng, err := exitio.NewEngine(exitio.ModeRPCSync, pool)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	return plat, pool, eng, th
}

func TestPolicyValidation(t *testing.T) {
	_, pool, eng, _ := newTuneEnv(t)
	bad := []tune.Policy{
		{MinWorkers: -1},
		{MinWorkers: 4, MaxWorkers: 2},
		{TargetUtilization: 1.5},
		{TargetUtilization: -0.2},
		{Hysteresis: -1},
		{Hysteresis: -1, ShrinkHysteresis: -3},
		{Hysteresis: 3, ShrinkHysteresis: 2},
	}
	for i, pol := range bad {
		if _, err := tune.New(pool, eng, pol); err == nil {
			t.Errorf("policy %d (%+v) accepted, want error", i, pol)
		}
	}
	if _, err := tune.New(nil, eng, tune.Policy{}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := tune.New(pool, nil, tune.Policy{}); err == nil {
		t.Error("nil engine accepted")
	}
	c, err := tune.New(pool, eng, tune.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Policy(), tune.Default(); got != want {
		t.Fatalf("zero policy normalized to %+v, want defaults %+v", got, want)
	}
}

func TestFirstPumpIsBaseline(t *testing.T) {
	_, pool, eng, th := newTuneEnv(t)
	c, err := tune.New(pool, eng, tune.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pump(th) {
		t.Fatal("first Pump fired an epoch; it must only record baselines")
	}
	if c.Pump(th) {
		t.Fatal("off-epoch Pump fired with no virtual time elapsed")
	}
	if st := c.Stats(); st.Epochs != 0 || !st.Enabled {
		t.Fatalf("stats after baseline: %+v", st)
	}
	// Advice starts as the engine's default mode, so fresh queues need no
	// flip.
	if adv := c.Advice(); adv.Mode != eng.Mode() {
		t.Fatalf("initial advice %+v does not match engine mode %v", adv, eng.Mode())
	}
}

// testPolicy is the shared aggressive policy: short epochs and shallow
// hysteresis so a small drive crosses many decision boundaries.
func testPolicy() tune.Policy {
	return tune.Policy{
		EpochCycles:      300_000,
		MinWorkers:       1,
		MaxWorkers:       4,
		Hysteresis:       2,
		ShrinkHysteresis: 2,
	}
}

// driveTrace runs the canonical bursty load trace against a fresh
// platform: a saturated phase of 8-wide exit-less batches (demand well
// above one worker), then a quiet phase of compute with sparse
// synchronous calls (demand near zero). Single pumping thread, virtual
// cycles only — the decision sequence must be identical on every run.
func driveTrace(t *testing.T, pol tune.Policy) ([]tune.Decision, tune.Stats, tune.Advice) {
	t.Helper()
	_, pool, eng, th := newTuneEnv(t)
	c, err := tune.New(pool, eng, pol)
	if err != nil {
		t.Fatal(err)
	}
	c.Pump(th) // baseline

	// Each op costs ~5k worker cycles (a syscall plus processing), so an
	// 8-wide batch offers ~40k cycles of service per submission — demand
	// well past one worker once the pool can spread it.
	work := func(h *sgx.HostCtx) {
		h.Syscall(nil)
		h.Thread().T.Charge(4750)
	}
	batch := make([]func(*sgx.HostCtx), 8)
	for i := range batch {
		batch[i] = work
	}
	for i := 0; i < 400; i++ { // busy: offered parallelism ~8
		if err := pool.CallBatch(th, batch); err != nil {
			t.Fatal(err)
		}
		c.Pump(th)
	}
	for i := 0; i < 400; i++ { // quiet: mostly compute, rare syscalls
		th.T.Charge(20_000)
		if i%16 == 0 {
			if err := pool.Call(th, work); err != nil {
				t.Fatal(err)
			}
		}
		c.Pump(th)
	}
	return c.Trace(), c.Stats(), c.Advice()
}

// decisionTraceFingerprint pins driveTrace's decision sequence.
const decisionTraceFingerprint uint64 = 0x90addd30b9c7e49a

// traceFingerprint hashes the full %+v rendering of a decision trace,
// so a pinned value catches a change to any field of any decision, not
// just disagreement between two runs.
func traceFingerprint(trace any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", trace)
	return h.Sum64()
}

// The tentpole determinism contract: the same load trace yields the
// same decision sequence, epoch for epoch, on every run — verified by
// running the drive twice on fresh platforms.
func TestDecisionTraceDeterministic(t *testing.T) {
	trace1, st1, adv1 := driveTrace(t, testPolicy())
	trace2, st2, _ := driveTrace(t, testPolicy())

	if len(trace1) == 0 {
		t.Fatal("drive produced no decisions")
	}
	if !reflect.DeepEqual(trace1, trace2) {
		n := len(trace1)
		if len(trace2) < n {
			n = len(trace2)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(trace1[i], trace2[i]) {
				t.Fatalf("decision %d differs between runs:\n run1: %+v\n run2: %+v", i, trace1[i], trace2[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d", len(trace1), len(trace2))
	}
	if got := traceFingerprint(trace1); got != decisionTraceFingerprint {
		t.Fatalf("decision trace fingerprint %#x, want %#x (%d decisions)", got, decisionTraceFingerprint, len(trace1))
	}

	// The trace must be non-degenerate: the busy phase grows the pool
	// and raises the advice, the quiet phase shrinks it back down.
	if st1.Grows == 0 || st1.Shrinks == 0 {
		t.Fatalf("degenerate trace: grows=%d shrinks=%d", st1.Grows, st1.Shrinks)
	}
	if st1.ModeSwitches < 2 {
		t.Fatalf("ModeSwitches = %d, want >= 2 (up in the busy phase, back down in the quiet one)", st1.ModeSwitches)
	}
	if st1.Workers != 1 {
		t.Fatalf("workers after the quiet phase = %d, want 1", st1.Workers)
	}
	if adv1.Mode != exitio.ModeRPCSync || adv1.Chain {
		t.Fatalf("advice after the quiet phase = %+v, want plain sync", adv1)
	}
	if st1.Epochs != st2.Epochs || st1.Grows != st2.Grows ||
		st1.Shrinks != st2.Shrinks || st1.ModeSwitches != st2.ModeSwitches {
		t.Fatalf("counters diverge: %+v vs %+v", st1, st2)
	}

	// The busy phase must have crossed the chain threshold at its peak.
	var sawChain bool
	for _, d := range trace1 {
		if d.Chain {
			sawChain = true
		}
		if d.Workers < 1 || d.Workers > 4 {
			t.Fatalf("decision %d left the worker bounds: %+v", d.Epoch, d)
		}
	}
	if !sawChain {
		t.Fatal("busy phase never reached the linked-chain advice")
	}
}

// wantedAdvice is the advice an epoch's demand asks for: synchronous
// below 0.5, asynchronous below 1.5, linked chains above.
func wantedAdvice(demand float64) tune.Advice {
	switch {
	case demand < 0.5:
		return tune.Advice{Mode: exitio.ModeRPCSync}
	case demand < 1.5:
		return tune.Advice{Mode: exitio.ModeRPCAsync}
	default:
		return tune.Advice{Mode: exitio.ModeRPCAsync, Chain: true}
	}
}

// Even at Hysteresis 1 a mode switch needs two consecutive epochs
// wanting the new advice: the first only opens the streak.
func TestModeSwitchNeedsTwoEpochs(t *testing.T) {
	pol := testPolicy()
	pol.Hysteresis, pol.ShrinkHysteresis = 1, 3
	trace, st, _ := driveTrace(t, pol)
	if st.ModeSwitches == 0 {
		t.Fatalf("drive switched no mode: %+v", st)
	}
	for i, d := range trace {
		if !d.Switched {
			continue
		}
		now := tune.Advice{Mode: d.Mode, Chain: d.Chain}
		if i == 0 || wantedAdvice(trace[i-1].Demand) != now || wantedAdvice(d.Demand) != now {
			t.Fatalf("epoch %d switched to %+v without two epochs wanting it: %+v", d.Epoch, now, trace[max(i-1, 0):i+1])
		}
	}
}

// ApplyMode carries the advice onto a live queue at a chain boundary.
func TestApplyModeFollowsAdvice(t *testing.T) {
	_, pool, eng, th := newTuneEnv(t)
	c, err := tune.New(pool, eng, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	q := eng.NewQueue()
	if q.Mode() != exitio.ModeRPCSync {
		t.Fatalf("fresh queue mode = %v", q.Mode())
	}
	c.Pump(th)

	work := func(h *sgx.HostCtx) {
		h.Syscall(nil)
		h.Thread().T.Charge(4750)
	}
	batch := make([]func(*sgx.HostCtx), 8)
	for i := range batch {
		batch[i] = work
	}
	for i := 0; i < 400 && c.Advice().Mode != exitio.ModeRPCAsync; i++ {
		if err := pool.CallBatch(th, batch); err != nil {
			t.Fatal(err)
		}
		c.Pump(th)
	}
	if c.Advice().Mode != exitio.ModeRPCAsync {
		t.Fatalf("advice never left sync: %+v (stats %+v)", c.Advice(), c.Stats())
	}
	if err := c.ApplyMode(th, q); err != nil {
		t.Fatal(err)
	}
	if q.Mode() != exitio.ModeRPCAsync {
		t.Fatalf("queue mode after ApplyMode = %v", q.Mode())
	}
	// Already matching: a free no-op.
	if err := c.ApplyMode(th, q); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.ModeSwitches != 1 {
		t.Fatalf("ModeSwitches = %d, want 1", st.ModeSwitches)
	}
}
