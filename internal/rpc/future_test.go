package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eleos/internal/cycles"
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

// A batch of W barrier calls on a W-worker pool is spread across all
// workers by placement (request i on the i-th ring from the caller's
// shard), one call per worker, and its amortized charge is one enqueue
// + (n-1) marginal enqueues + the parallel makespan + one poll.
func TestBatchSpreadsAcrossWorkers(t *testing.T) {
	plat, th, pool := newAsyncEnv(t, 4)
	m := plat.Model

	barrier := make(chan struct{})
	arrived := make(chan *sgx.Thread, 4)
	fn := func(h *sgx.HostCtx) {
		h.Syscall(nil)
		arrived <- h.Thread()
		<-barrier // hold this worker until all four are inside
	}
	fns := []func(*sgx.HostCtx){fn, fn, fn, fn}

	ran := make(map[*sgx.Thread]int)
	release := make(chan struct{})
	go func() {
		for i := 0; i < 4; i++ {
			ran[<-arrived]++
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
	for i, w := range pool.Workers() {
		if ran[w] != 1 {
			t.Fatalf("worker %d ran %d of the batch's calls, want 1", i, ran[w])
		}
	}
	if st.PeakQueueDepth < 1 {
		t.Fatalf("PeakQueueDepth = %d, want >= 1", st.PeakQueueDepth)
	}
}

// A request's worker is fixed when it is published: one caller's async
// calls all run on its shard's worker, and batch request i on the i-th
// worker after it. So the same program on fresh platforms leaves every
// worker's clock at the same count, whichever goroutine ran each call
// and whenever the workers polled; a worker taking calls from a
// sibling's ring breaks both. Each call charges a distinct amount so a
// misplaced call shows in the clocks. How often an idle worker is woken
// depends on host timing, so the model's wake charge is zeroed.
func TestPlacementIsDeterministic(t *testing.T) {
	const workers, async, batch = 4, 32, 8
	run := func() [workers]uint64 {
		m := cycles.DefaultModel()
		m.RPCWake = 0
		plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 8 << 20, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		encl, err := plat.NewEnclave()
		if err != nil {
			t.Fatal(err)
		}
		th := encl.NewThread()
		th.Enter()
		pool := NewPool(plat, workers, 4*async)
		pool.Start()
		ws := pool.Workers()
		s := shardOf(th, workers)

		var mu sync.Mutex
		ranOn := make([]*sgx.Thread, async+batch)
		call := func(i int) func(*sgx.HostCtx) {
			return func(h *sgx.HostCtx) {
				h.Syscall(nil)
				h.Thread().T.Charge(uint64(i))
				mu.Lock()
				ranOn[i] = h.Thread()
				mu.Unlock()
			}
		}
		futs := make([]*Future, async)
		for i := range futs {
			f, err := pool.CallAsync(th, call(i))
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = f
		}
		fns := make([]func(*sgx.HostCtx), batch)
		for i := range fns {
			fns[i] = call(async + i)
		}
		if err := pool.CallBatch(th, fns); err != nil {
			t.Fatal(err)
		}
		for _, f := range futs {
			f.Wait(th)
		}
		pool.Stop()

		for i, w := range ranOn {
			want := ws[s]
			if i >= async {
				want = ws[(s+i-async)%workers]
			}
			if w != want {
				t.Fatalf("call %d ran on thread %d, want worker thread %d", i, w.T.ID(), want.T.ID())
			}
		}
		var clocks [workers]uint64
		for k := range clocks {
			clocks[k] = ws[(s+k)%workers].T.Cycles()
		}
		return clocks
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("worker clocks differ between identical runs: %v vs %v", a, b)
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
// time, regardless of host scheduling, which goroutine ran each call
// or wake timing.
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
