package rpc

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eleos/internal/sgx"
)

// dequeueThrough never hands out a ticket past its limit, so a helper
// stops at its own request.
func TestRingDequeueThroughStopsAtTicket(t *testing.T) {
	r := newRing(16)
	reqs := make([]request, 3)
	var tickets [3]uint64
	for i := range reqs {
		tickets[i] = r.enqueue(&reqs[i])
	}
	for i := 0; i < 2; i++ {
		if got := r.dequeueThrough(tickets[1]); got != &reqs[i] {
			t.Fatalf("dequeueThrough #%d = %p, want %p", i, got, &reqs[i])
		}
	}
	if got := r.dequeueThrough(tickets[1]); got != nil {
		t.Fatalf("dequeueThrough past the limit returned %p", got)
	}
	if got := r.dequeueThrough(math.MaxUint64); got != &reqs[2] {
		t.Fatalf("dequeue after the limit = %p, want %p", got, &reqs[2])
	}
}

// A waiting submitter runs its ring's requests in FIFO order up to and
// including its own, on the worker's thread, and leaves the work queued
// behind it alone. The pool is marked running without starting its
// worker goroutine, so only the helper can execute anything.
func TestHelpRunsQueueUpToOwnRequest(t *testing.T) {
	plat := newPlat(t)
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	pool := NewPool(plat, 1, 64)
	pool.state.Store(poolRunning)
	defer pool.state.Store(poolIdle)
	wth := pool.Workers()[0]

	var order []int
	futs := make([]*Future, 3)
	for i := range futs {
		i := i
		f, err := pool.CallAsync(th, func(h *sgx.HostCtx) {
			if h.Thread() != wth {
				t.Errorf("call %d ran on thread %d, want the worker's %d", i, h.Thread().T.ID(), wth.T.ID())
			}
			h.Syscall(nil)
			order = append(order, i)
		})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	if !futs[1].Help() {
		t.Fatal("Help on an idle worker left the call undone")
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("helper ran %v, want [0 1]", order)
	}
	if futs[2].Done() {
		t.Fatal("helper ran work queued behind its own request")
	}
	if st := pool.Stats(); st.Helped != 2 || st.WorkerOps != 2 || st.QueueDepth != 1 {
		t.Fatalf("after help: Helped=%d WorkerOps=%d QueueDepth=%d, want 2, 2, 1", st.Helped, st.WorkerOps, st.QueueDepth)
	}
	for _, f := range futs {
		f.Wait(th)
	}
	if len(order) != 3 || order[2] != 2 {
		t.Fatalf("execution order %v, want [0 1 2]", order)
	}
	if got, want := wth.T.Cycles(), 3*plat.Model.Syscall; got != want {
		t.Fatalf("worker clock %d, want %d: helped calls charge the worker's thread", got, want)
	}
}

// A worker woken from the sleep rung charges RPCWake to its thread.
// When the waiting submitter is the one running the call on that
// thread, the wake must land outside the call: a call's work cycles are
// exactly what the call charged.
func TestWakeChargeStaysOutOfHelpedCall(t *testing.T) {
	plat, th, pool := newAsyncEnv(t, 1)
	m := plat.Model
	slow := func(h *sgx.HostCtx) {
		h.Syscall(nil)
		// Host time for the woken worker to reach its wake charge
		// while the call is still running on its thread.
		time.Sleep(200 * time.Microsecond)
	}
	w := pool.workers()[0]
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 20; i++ {
		// Nothing else submits, so once the worker reaches the sleep
		// rung it stays there until this round's submission wakes it.
		for !w.sleeping.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: worker never reached the sleep rung", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(time.Millisecond) // past the depth re-check, blocked on its wake channel
		if i%2 == 0 {
			f, err := pool.CallAsync(th, slow)
			if err != nil {
				t.Fatal(err)
			}
			f.Wait(th)
			if f.WorkCycles() != m.Syscall {
				t.Fatalf("round %d: WorkCycles = %d, want %d (a wake leaked into the call)", i, f.WorkCycles(), m.Syscall)
			}
			continue
		}
		before := th.T.Cycles()
		if err := pool.Call(th, slow); err != nil {
			t.Fatal(err)
		}
		if got, want := th.T.Cycles()-before, m.RPCEnqueue+m.Syscall+m.RPCPoll; got != want {
			t.Fatalf("round %d: Call charged %d, want %d (a wake leaked into the call)", i, got, want)
		}
	}
	for pool.Stats().Wakes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no submission ever woke the sleeping worker")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStressExclusiveWorkerThreads mixes all three submission paths
// from four enclave threads while the pool resizes 2→4→1 and then
// stops. Whoever runs a call — the worker loop or a waiting submitter —
// must have its worker's thread to itself: each
// call marks its thread busy and fails if it already was. Every
// accepted call runs exactly once, refused ones never run, every future
// completes, and waiting submitters did run some calls themselves. Run
// under -race, this also checks the run lock publishes each thread's
// TLB and clock state from one goroutine to the next.
func TestStressExclusiveWorkerThreads(t *testing.T) {
	plat := newPlat(t)
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(plat, 2, 64)
	pool.Start()

	var busy sync.Map // *sgx.Thread → *atomic.Bool
	var executed atomic.Int64
	call := func(runs *atomic.Int32) func(*sgx.HostCtx) {
		return func(h *sgx.HostCtx) {
			v, _ := busy.LoadOrStore(h.Thread(), new(atomic.Bool))
			b := v.(*atomic.Bool)
			if !b.CompareAndSwap(false, true) {
				t.Errorf("worker thread %d run by two goroutines at once", h.Thread().T.ID())
			}
			h.Syscall(nil)
			runtime.Gosched() // widen the window for an overlapping runner
			runs.Add(1)
			b.Store(false)
			executed.Add(1)
		}
	}

	const submitters = 4
	type tally struct{ accepted, refused []*atomic.Int32 }
	tallies := make([]tally, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			th := encl.NewThread()
			th.Enter()
			var futs []*Future
			defer func() {
				// Accepted before Stop, so each Wait must return.
				for _, f := range futs {
					f.Wait(th)
				}
			}()
			for i := 0; i < 100000; i++ {
				var runs []*atomic.Int32
				var err error
				switch i % 3 {
				case 0:
					runs = []*atomic.Int32{new(atomic.Int32)}
					err = pool.Call(th, call(runs[0]))
				case 1:
					runs = []*atomic.Int32{new(atomic.Int32)}
					var f *Future
					if f, err = pool.CallAsync(th, call(runs[0])); err == nil {
						futs = append(futs, f)
						if len(futs) > 4 {
							futs[0].Wait(th)
							futs = futs[1:]
						}
					}
				case 2:
					runs = []*atomic.Int32{new(atomic.Int32), new(atomic.Int32), new(atomic.Int32)}
					err = pool.CallBatch(th, []func(*sgx.HostCtx){call(runs[0]), call(runs[1]), call(runs[2])})
				}
				if err != nil {
					if !errors.Is(err, ErrStopped) {
						t.Errorf("submission: %v", err)
					}
					tl.refused = append(tl.refused, runs...)
					return
				}
				tl.accepted = append(tl.accepted, runs...)
			}
		}(&tallies[g])
	}

	// Let each phase make progress before the next resize.
	deadline := time.Now().Add(20 * time.Second)
	progress := func() {
		from := executed.Load()
		for executed.Load() < from+1000 {
			if time.Now().After(deadline) {
				t.Fatal("submitters stopped making progress")
			}
			time.Sleep(time.Millisecond)
		}
	}
	progress()
	for _, n := range []int{4, 1} {
		if err := pool.Resize(n); err != nil {
			t.Fatal(err)
		}
		progress()
	}
	pool.Stop()
	wg.Wait()

	var accepted int64
	for _, tl := range tallies {
		for _, r := range tl.accepted {
			if n := r.Load(); n != 1 {
				t.Fatalf("an accepted call ran %d times", n)
			}
		}
		for _, r := range tl.refused {
			if n := r.Load(); n != 0 {
				t.Fatalf("a refused call ran %d times", n)
			}
		}
		accepted += int64(len(tl.accepted))
	}
	st := pool.Stats()
	if int64(st.WorkerOps) != accepted || executed.Load() != accepted {
		t.Fatalf("accepted %d calls, WorkerOps %d, executed %d", accepted, st.WorkerOps, executed.Load())
	}
	if st.Helped == 0 {
		t.Fatal("no waiting submitter ever ran its own call")
	}
}
