package eleos

import (
	"sync/atomic"
	"testing"
)

// NewRuntime with no arguments takes the paper's defaults, and each
// functional option changes exactly its knob.
func TestNewRuntimeConfigurationStyles(t *testing.T) {
	// No arguments: the paper's defaults.
	rt, err := NewRuntime()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Pool().Workers()); got != 2 {
		t.Fatalf("default worker count = %d, want 2", got)
	}
	rt.Close()

	// Functional options, applied in order over the defaults.
	rt, err = NewRuntime(
		WithRPCWorkers(4),
		WithCATWays(0),
		WithRPCRing(64),
		WithMachine(MachineConfig{UsablePRMBytes: 8 << 20}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := len(rt.Pool().Workers()); got != 4 {
		t.Fatalf("WithRPCWorkers(4) worker count = %d", got)
	}
	defFrames := func() int {
		d, err := NewRuntime()
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		return d.Platform().Driver.NumFrames()
	}()
	if got := rt.Platform().Driver.NumFrames(); got >= defFrames {
		t.Fatalf("WithMachine(8MiB PRM) frames = %d, not below default %d", got, defFrames)
	}
}

// A later option overrides an earlier one.
func TestOptionOrdering(t *testing.T) {
	rt, err := NewRuntime(WithRPCWorkers(8), WithRPCWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := len(rt.Pool().Workers()); got != 1 {
		t.Fatalf("later option did not win: %d workers", got)
	}
}

// Ctx.Go and Ctx.ExitlessBatch are exit-less like Ctx.Exitless: the
// calls run on untrusted workers, the futures complete, and the enclave
// never exits.
func TestCtxGoAndBatchAreExitless(t *testing.T) {
	rt, err := NewRuntime(WithRPCWorkers(4))
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
	if err := p.WriteAt(0, []byte("warm")); err != nil { // first touch faults the page in
		t.Fatal(err)
	}
	exits0, _, _, _, _ := encl.Raw().Stats().Snapshot()
	var ran atomic.Int64

	fut := ctx.Go(func(h *HostCtx) {
		h.Syscall(nil)
		ran.Add(1)
	})
	// Overlapped enclave compute while the worker runs the call.
	if err := p.WriteAt(0, []byte("overlapped")); err != nil {
		t.Fatal(err)
	}
	fut.Wait()
	if !fut.Done() || ran.Load() != 1 {
		t.Fatalf("future done=%v ran=%d", fut.Done(), ran.Load())
	}
	if fut.Raw() == nil {
		t.Fatal("Raw future not exposed")
	}
	fut.Wait() // idempotent

	batchFn := func(h *HostCtx) {
		h.Syscall(nil)
		ran.Add(1)
	}
	ctx.ExitlessBatch(batchFn, batchFn, batchFn, batchFn)
	if ran.Load() != 5 {
		t.Fatalf("batch ran %d of 4 calls", ran.Load()-1)
	}

	exits1, _, _, _, _ := encl.Raw().Stats().Snapshot()
	if exits1 != exits0 {
		t.Fatalf("async/batch calls caused %d enclave exits", exits1-exits0)
	}

	st := rt.Stats().RPC
	if st.Calls-st.BatchedCalls != 1 || st.Batches != 1 || st.BatchedCalls != 4 {
		t.Fatalf("pool counters %+v", st)
	}
}
