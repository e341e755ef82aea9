package rpc

import (
	"errors"
	"testing"
	"time"

	"eleos/internal/sgx"
)

func newAsyncEnv(t testing.TB, workers int) (*sgx.Platform, *sgx.Thread, *Pool) {
	t.Helper()
	plat := newPlat(t)
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	pool := NewPool(plat, workers, 64)
	pool.Start()
	t.Cleanup(pool.Stop)
	return plat, th, pool
}

// An async submit followed by an immediate Wait observes exactly the
// synchronous latency: enqueue + the full work (nothing was overlapped)
// + completion polling. This pins CallAsync+Wait as a strict
// generalization of Call.
func TestAsyncImmediateWaitMatchesSyncCharge(t *testing.T) {
	plat, th, pool := newAsyncEnv(t, 1)
	m := plat.Model

	before := th.T.Cycles()
	f, err := pool.CallAsync(th, func(h *sgx.HostCtx) { h.Syscall(nil) })
	if err != nil {
		t.Fatal(err)
	}
	f.Wait(th)
	got := th.T.Cycles() - before
	want := m.RPCEnqueue + m.Syscall + m.RPCPoll
	if got != want {
		t.Fatalf("async+immediate wait charged %d cycles, want %d", got, want)
	}
	if !f.Done() {
		t.Fatal("future not done after Wait")
	}
	if f.WorkCycles() != m.Syscall {
		t.Fatalf("WorkCycles = %d, want %d", f.WorkCycles(), m.Syscall)
	}
	st := pool.Stats()
	if st.AsyncCalls != 1 || st.Calls != 1 {
		t.Fatalf("counters %+v", st)
	}
	// Double Wait is a no-op: no further charge.
	after := th.T.Cycles()
	f.Wait(th)
	if th.T.Cycles() != after {
		t.Fatal("second Wait charged the caller again")
	}
}

// When the caller's own compute fully covers the call's latency, Wait
// charges nothing beyond the poll: total = enqueue + compute + poll,
// with zero residual recorded.
func TestAsyncWaitChargesOnlyResidual(t *testing.T) {
	plat, th, pool := newAsyncEnv(t, 1)
	m := plat.Model
	const overlap = 1000 // > Syscall work of 250

	before := th.T.Cycles()
	f, err := pool.CallAsync(th, func(h *sgx.HostCtx) { h.Syscall(nil) })
	if err != nil {
		t.Fatal(err)
	}
	th.T.Charge(overlap) // enclave compute overlapping the in-flight call
	f.Wait(th)
	got := th.T.Cycles() - before
	want := m.RPCEnqueue + overlap + m.RPCPoll
	if got != want {
		t.Fatalf("fully-overlapped async charged %d cycles, want %d", got, want)
	}
	if st := pool.Stats(); st.WaitCycles != 0 {
		t.Fatalf("WaitCycles = %d, want 0 (fully hidden)", st.WaitCycles)
	}
}

// Partial overlap: the caller hides `overlap` of the work and Wait
// charges the remainder, which Stats reports as WaitCycles.
func TestAsyncWaitPartialOverlap(t *testing.T) {
	plat, th, pool := newAsyncEnv(t, 1)
	m := plat.Model
	overlap := m.Syscall / 2

	before := th.T.Cycles()
	f, err := pool.CallAsync(th, func(h *sgx.HostCtx) { h.Syscall(nil) })
	if err != nil {
		t.Fatal(err)
	}
	th.T.Charge(overlap)
	f.Wait(th)
	got := th.T.Cycles() - before
	want := m.RPCEnqueue + m.Syscall + m.RPCPoll // residual tops overlap back up to full work
	if got != want {
		t.Fatalf("partially-overlapped async charged %d cycles, want %d", got, want)
	}
	if st := pool.Stats(); st.WaitCycles != m.Syscall-overlap {
		t.Fatalf("WaitCycles = %d, want %d", st.WaitCycles, m.Syscall-overlap)
	}
}

// A batch of W barrier calls on a W-worker pool must be spread across
// all workers by stealing (the batch lands on one affinity shard), and
// its amortized charge is one enqueue + (n-1) marginal enqueues + the
// parallel makespan + one poll.
func TestBatchSpreadsAcrossWorkersByStealing(t *testing.T) {
	plat, th, pool := newAsyncEnv(t, 4)
	m := plat.Model

	barrier := make(chan struct{})
	arrived := make(chan struct{}, 4)
	fn := func(h *sgx.HostCtx) {
		h.Syscall(nil)
		arrived <- struct{}{}
		<-barrier // hold this worker until all four are inside
	}
	fns := []func(*sgx.HostCtx){fn, fn, fn, fn}

	release := make(chan struct{})
	go func() {
		for i := 0; i < 4; i++ {
			<-arrived
		}
		close(barrier)
		close(release)
	}()

	before := th.T.Cycles()
	if err := pool.CallBatch(th, fns); err != nil {
		t.Fatal(err)
	}
	<-release
	got := th.T.Cycles() - before
	// All four ran concurrently, each costing one Syscall, so the
	// makespan is a single Syscall.
	want := m.RPCEnqueue + 3*m.RPCBatchEnqueue + m.Syscall + m.RPCPoll
	if got != want {
		t.Fatalf("batch charged %d cycles, want %d", got, want)
	}
	st := pool.Stats()
	if st.Batches != 1 || st.BatchedCalls != 4 || st.Calls != 4 {
		t.Fatalf("batch counters %+v", st)
	}
	// One request stays with the shard owner; the barrier forces the
	// other three onto stealing siblings.
	if st.Steals != 3 {
		t.Fatalf("Steals = %d, want 3", st.Steals)
	}
	if st.PeakQueueDepth < 1 {
		t.Fatalf("PeakQueueDepth = %d, want >= 1", st.PeakQueueDepth)
	}
}

// Submissions on a never-started, stopping or stopped pool fail with
// ErrStopped; a stopped pool can be started again.
func TestStoppedPoolRefusesSubmissions(t *testing.T) {
	plat := newPlat(t)
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	pool := NewPool(plat, 2, 64)
	fn := func(h *sgx.HostCtx) {}
	fns := []func(*sgx.HostCtx){fn, fn}

	check := func(stage string) {
		t.Helper()
		if err := pool.Call(th, fn); !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: Call error = %v, want ErrStopped", stage, err)
		}
		if f, err := pool.CallAsync(th, fn); !errors.Is(err, ErrStopped) || f != nil {
			t.Fatalf("%s: CallAsync = (%v, %v), want (nil, ErrStopped)", stage, f, err)
		}
		if err := pool.CallBatch(th, fns); !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: CallBatch error = %v, want ErrStopped", stage, err)
		}
	}

	check("never started")

	pool.Start()
	if err := pool.Call(th, fn); err != nil {
		t.Fatalf("Call on running pool: %v", err)
	}
	pool.Stop()
	check("stopped")

	// Restart: the pool is reusable after Stop.
	pool.Start()
	defer pool.Stop()
	if err := pool.CallBatch(th, fns); err != nil {
		t.Fatalf("CallBatch after restart: %v", err)
	}
}

// Stop drains: futures accepted before Stop complete, and Wait on them
// succeeds even after the pool has shut down.
func TestStopDrainsAcceptedFutures(t *testing.T) {
	plat := newPlat(t)
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	pool := NewPool(plat, 2, 64)
	pool.Start()

	gate := make(chan struct{})
	var futs []*Future
	for i := 0; i < 8; i++ {
		f, err := pool.CallAsync(th, func(h *sgx.HostCtx) {
			<-gate
			h.Syscall(nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	go func() {
		time.Sleep(5 * time.Millisecond) // let Stop get underway first
		close(gate)
	}()
	pool.Stop() // blocks until the workers drain all eight
	for i, f := range futs {
		f.Wait(th)
		if !f.Done() {
			t.Fatalf("future %d not done after drain", i)
		}
	}
	if st := pool.Stats(); st.WorkerOps != 8 {
		t.Fatalf("WorkerOps = %d, want 8 (accepted work must execute)", st.WorkerOps)
	}
}

// An idle worker descends the backoff ladder to the sleep rung, and an
// enqueue wakes it.
func TestBackoffReachesSleepAndWakes(t *testing.T) {
	plat := newPlat(t)
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	pool := NewPool(plat, 1, 64)
	pool.Start()
	defer pool.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for pool.Stats().Sleeps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the sleep rung")
		}
		time.Sleep(time.Millisecond)
	}
	for pool.Stats().Wakes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("enqueue never woke the sleeping worker")
		}
		time.Sleep(2 * time.Millisecond) // give the worker time to re-sleep
		if err := pool.Call(th, func(h *sgx.HostCtx) {}); err != nil {
			t.Fatal(err)
		}
	}
}

// The async and batched paths are as deterministic as the synchronous
// one: identical programs on fresh platforms consume identical virtual
// time, regardless of host scheduling, stealing order or wake timing.
func TestAsyncChargesDeterministic(t *testing.T) {
	run := func() uint64 {
		plat := newPlat(t)
		encl, err := plat.NewEnclave()
		if err != nil {
			t.Fatal(err)
		}
		th := encl.NewThread()
		th.Enter()
		pool := NewPool(plat, 4, 64)
		pool.Start()
		defer pool.Stop()

		var futs []*Future
		for i := 0; i < 64; i++ {
			f, err := pool.CallAsync(th, func(h *sgx.HostCtx) { h.Syscall(nil) })
			if err != nil {
				t.Fatal(err)
			}
			th.T.Charge(100)
			futs = append(futs, f)
			if len(futs) == 4 {
				futs[0].Wait(th)
				futs = futs[1:]
			}
		}
		for _, f := range futs {
			f.Wait(th)
		}
		fns := make([]func(*sgx.HostCtx), 8)
		for i := range fns {
			fns[i] = func(h *sgx.HostCtx) { h.Syscall(nil) }
		}
		if err := pool.CallBatch(th, fns); err != nil {
			t.Fatal(err)
		}
		return th.T.Cycles()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("async workload nondeterministic: %d vs %d cycles", a, b)
	}
}
