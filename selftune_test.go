package eleos

import (
	"errors"
	"testing"
)

// WithRPCWorkers (fixed pool) and WithWorkerBounds/WithAutoTune
// (adaptive pool) are mutually exclusive, whichever order the options
// appear in. NewRuntime fails with the ErrConflictingOptions sentinel.
func TestConflictingWorkerOptions(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"workers-then-bounds", []Option{WithRPCWorkers(4), WithWorkerBounds(1, 8)}},
		{"bounds-then-workers", []Option{WithWorkerBounds(1, 8), WithRPCWorkers(4)}},
		{"workers-then-autotune", []Option{WithRPCWorkers(2), WithAutoTune(TunePolicy{})}},
		{"autotune-then-workers", []Option{WithAutoTune(TunePolicy{}), WithRPCWorkers(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := NewRuntime(tc.opts...)
			if err == nil {
				rt.Close()
				t.Fatal("conflicting options accepted")
			}
			if !errors.Is(err, ErrConflictingOptions) {
				t.Fatalf("err = %v, want ErrConflictingOptions", err)
			}
		})
	}

	// Each side alone stays valid.
	rt, err := NewRuntime(WithRPCWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tuner() != nil {
		t.Fatal("fixed-pool runtime has a tuner")
	}
	rt.Close()
	rt, err = NewRuntime(WithWorkerBounds(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Tuner() == nil {
		t.Fatal("WithWorkerBounds built no tuner")
	}
	if got := rt.Pool().WorkerCount(); got != 2 {
		t.Fatalf("self-tuning pool starts with %d workers, want the lower bound 2", got)
	}
	pol := rt.Tuner().Policy()
	if pol.MinWorkers != 2 || pol.MaxWorkers != 6 {
		t.Fatalf("tuner bounds = [%d, %d], want [2, 6]", pol.MinWorkers, pol.MaxWorkers)
	}
}

// Runtime.Stats assembles the unified tree and agrees with the old
// accessors it wraps.
func TestRuntimeStatsTree(t *testing.T) {
	rt, err := NewRuntime(WithRPCWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	p, err := ctx.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteAt(0, []byte("stats")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ctx.Exitless(func(h *HostCtx) { h.Syscall(nil) })
	}
	if _, err := ctx.IO().SubmitAndWait(); err != nil {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.RPC.Calls < 10 {
		t.Fatalf("RPC.Calls = %d, want >= 10", st.RPC.Calls)
	}
	if st.RPC.Workers != 2 {
		t.Fatalf("RPC.Workers = %d, want 2", st.RPC.Workers)
	}
	if len(st.Heaps) != 1 {
		t.Fatalf("Heaps has %d entries, want 1", len(st.Heaps))
	}
	if st.Heaps[0].MajorFaults == 0 {
		t.Fatal("heap stats show no faults after a cold write")
	}
	if st.Tune.Enabled {
		t.Fatal("Tune.Enabled on a fixed-pool runtime")
	}
	// The per-layer accessor reads the same counters as the tree.
	if got := rt.Pool().Stats().Workers; got != st.RPC.Workers {
		t.Fatalf("Pool().Stats().Workers = %d, tree says %d", got, st.RPC.Workers)
	}

	// A destroyed enclave drops out of the tree.
	encl2, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Stats().Heaps); got != 2 {
		t.Fatalf("Heaps has %d entries after second enclave, want 2", got)
	}
	encl2.Destroy()
	if got := len(rt.Stats().Heaps); got != 1 {
		t.Fatalf("Heaps has %d entries after Destroy, want 1", got)
	}
}

// End-to-end autotuning through the public API: a serving loop that
// only calls Pump sees the pool grow under a saturated batch phase,
// the advice climb to linked-async, and both fall back in the quiet
// phase. Pump on a fixed-pool runtime is a cheap no-op.
func TestAutoTuneEndToEnd(t *testing.T) {
	rt, err := NewRuntime(WithAutoTune(TunePolicy{
		EpochCycles:      300_000,
		MinWorkers:       1,
		MaxWorkers:       4,
		Hysteresis:       2,
		ShrinkHysteresis: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()
	q := ctx.IO()
	if q.Mode() != IORPCAsync {
		t.Fatalf("fresh queue mode = %v", q.Mode())
	}

	work := func(h *HostCtx) {
		h.Syscall(nil)
		h.Thread().T.Charge(4750)
	}
	batch := make([]func(*HostCtx), 8)
	for i := range batch {
		batch[i] = work
	}
	epochs := 0
	for i := 0; i < 400; i++ { // busy phase
		ctx.ExitlessBatch(batch...)
		if ctx.Pump() {
			epochs++
		}
	}
	busy := rt.Stats().Tune
	if !busy.Enabled {
		t.Fatal("Tune.Enabled false on an autotuned runtime")
	}
	if busy.Workers <= 1 {
		t.Fatalf("busy phase never grew the pool: %+v", busy)
	}
	if busy.Mode != IORPCAsync || !busy.Chain {
		t.Fatalf("busy-phase advice = mode %v chain %v, want linked async", busy.Mode, busy.Chain)
	}

	for i := 0; i < 400; i++ { // quiet phase
		ctx.Thread().T.Charge(20_000)
		if i%16 == 0 {
			ctx.Exitless(work)
		}
		if ctx.Pump() {
			epochs++
		}
	}
	quiet := rt.Stats().Tune
	if quiet.Workers != 1 {
		t.Fatalf("quiet phase left %d workers, want 1", quiet.Workers)
	}
	if quiet.Mode != IORPCSync || quiet.Chain {
		t.Fatalf("quiet-phase advice = mode %v chain %v, want plain sync", quiet.Mode, quiet.Chain)
	}
	// Pump carried the advice onto the context's queue.
	if q.Mode() != IORPCSync {
		t.Fatalf("queue mode after quiet phase = %v, want %v", q.Mode(), IORPCSync)
	}
	if epochs == 0 || uint64(epochs) != quiet.Epochs {
		t.Fatalf("Pump reported %d epochs, stats say %d", epochs, quiet.Epochs)
	}
	if quiet.Grows == 0 || quiet.Shrinks == 0 || quiet.ModeSwitches < 2 {
		t.Fatalf("degenerate run: %+v", quiet)
	}
	// The queue kept working across every resize and mode flip.
	if _, err := q.SubmitAndWait(); err != nil {
		t.Fatal(err)
	}

	// Pump without a tuner: false, and nothing breaks.
	fixed, err := NewRuntime(WithRPCWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	fencl, err := fixed.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer fencl.Destroy()
	fctx := fencl.NewContext()
	defer fctx.Close()
	if fctx.Pump() {
		t.Fatal("Pump fired on a runtime without autotuning")
	}
}
