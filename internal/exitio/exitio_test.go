package exitio_test

import (
	"errors"
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/fsim"
	"eleos/internal/netsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

type env struct {
	plat *sgx.Platform
	th   *sgx.Thread
	pool *rpc.Pool
}

func newEnv(t *testing.T, mode exitio.Mode) (*env, *exitio.Engine) {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{plat: plat}
	if mode == exitio.ModeDirect {
		e.th = plat.NewHostThread(0)
	} else {
		encl, err := plat.NewEnclave()
		if err != nil {
			t.Fatal(err)
		}
		e.th = encl.NewThread()
		e.th.Enter()
	}
	if mode.NeedsPool() {
		e.pool = rpc.NewPool(plat, 2, 64)
		e.pool.Start()
		t.Cleanup(e.pool.Stop)
	}
	eng, err := exitio.NewEngine(mode, e.pool)
	if err != nil {
		t.Fatal(err)
	}
	return e, eng
}

func TestModeStringParse(t *testing.T) {
	for _, m := range []exitio.Mode{exitio.ModeDirect, exitio.ModeOCall, exitio.ModeRPCSync, exitio.ModeRPCAsync} {
		got, err := exitio.ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := exitio.ParseMode("telepathy"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}

func TestEngineRequiresPool(t *testing.T) {
	for _, m := range []exitio.Mode{exitio.ModeRPCSync, exitio.ModeRPCAsync} {
		if _, err := exitio.NewEngine(m, nil); err == nil {
			t.Fatalf("NewEngine(%v, nil) succeeded; want error", m)
		}
	}
	for _, m := range []exitio.Mode{exitio.ModeDirect, exitio.ModeOCall} {
		if _, err := exitio.NewEngine(m, nil); err != nil {
			t.Fatalf("NewEngine(%v, nil) = %v; want nil", m, err)
		}
	}
}

// A mode outside ModeDirect..ModeRPCAsync is refused wherever it can
// enter, with or without a pool, instead of building an engine or queue
// that counts a doorbell and then completes nothing.
func TestUnknownModeRejected(t *testing.T) {
	e, eng := newEnv(t, exitio.ModeRPCSync)
	for _, tc := range []struct {
		name string
		mode exitio.Mode
	}{
		{"negative", exitio.Mode(-1)},
		{"one past the last", exitio.ModeRPCAsync + 1},
		{"far out", exitio.Mode(9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, pool := range []*rpc.Pool{e.pool, nil} {
				if _, err := exitio.NewEngine(tc.mode, pool); err == nil {
					t.Fatalf("NewEngine(%d, with pool %v) succeeded; want an error", int(tc.mode), pool != nil)
				}
			}
			q := eng.NewQueue()
			if err := q.SetMode(e.th, tc.mode); err == nil {
				t.Fatalf("SetMode(%d) succeeded; want an error", int(tc.mode))
			}
			if q.Mode() != exitio.ModeRPCSync {
				t.Fatalf("refused SetMode changed the mode to %d", int(q.Mode()))
			}
		})
	}
}

// All four modes complete a socket request/response pair with correct
// typed completions. The pair is linked: a socket allows one in-flight
// chain at a time, and two async chains may run on two workers at once.
func TestModesCompleteSocketOps(t *testing.T) {
	for _, mode := range []exitio.Mode{exitio.ModeDirect, exitio.ModeOCall, exitio.ModeRPCSync, exitio.ModeRPCAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			e, eng := newEnv(t, mode)
			sock := netsim.NewSocket(e.plat, 4096)
			defer sock.Close()
			q := eng.NewQueue()

			sock.Deliver([]byte("request"))
			q.PushTagged(exitio.Recv{Sock: sock, N: 128}, 7)
			q.PushLinked(exitio.Send{Sock: sock, N: 64})
			cqes, err := q.SubmitAndWait(e.th)
			if err != nil {
				t.Fatal(err)
			}
			if len(cqes) != 2 {
				t.Fatalf("got %d completions, want 2", len(cqes))
			}
			if cqes[0].Kind != exitio.OpRecv || cqes[0].N != 128 || cqes[0].Tag != 7 || cqes[0].Err != nil {
				t.Fatalf("recv CQE = %+v", cqes[0])
			}
			if cqes[1].Kind != exitio.OpSend || cqes[1].N != 64 || cqes[1].Err != nil {
				t.Fatalf("send CQE = %+v", cqes[1])
			}
			if q.Staged() != 0 || q.InFlight() != 0 {
				t.Fatalf("queue not drained: staged %d, inflight %d", q.Staged(), q.InFlight())
			}
		})
	}
}

// A linked chain crosses the boundary on one doorbell; unlinked pushes
// cross on one each.
func TestLinkingCoalescesDoorbells(t *testing.T) {
	e, eng := newEnv(t, exitio.ModeRPCAsync)
	sock := netsim.NewSocket(e.plat, 4096)
	defer sock.Close()
	sock.Deliver([]byte("x"))
	q := eng.NewQueue()

	q.Push(exitio.Send{Sock: sock, N: 32})
	q.PushLinked(exitio.Recv{Sock: sock, N: 32})
	q.PushLinked(exitio.Send{Sock: sock, N: 32})
	if _, err := q.SubmitAndWait(e.th); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Doorbells != 1 || st.Chains != 1 || st.Ops != 3 || st.Linked != 2 {
		t.Fatalf("linked chain stats = %+v, want 1 doorbell / 1 chain / 3 ops / 2 linked", st)
	}

	// Two unlinked chains may run concurrently, so each gets its own
	// socket.
	sock2 := netsim.NewSocket(e.plat, 4096)
	defer sock2.Close()
	q.Push(exitio.Send{Sock: sock, N: 32})
	q.Push(exitio.Recv{Sock: sock2, N: 32})
	if _, err := q.SubmitAndWait(e.th); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Doorbells != 3 || st.Chains != 3 || st.Ops != 5 || st.Linked != 2 {
		t.Fatalf("unlinked stats = %+v, want 3 doorbells / 3 chains / 5 ops / 2 linked", st)
	}
}

// An endpoint defers a send only while its queue's live mode is
// rpc-async, links the next receive onto it, and flushes an earlier
// deferred send before reusing the descriptor.
func TestEndpointFollowsLiveMode(t *testing.T) {
	e, eng := newEnv(t, exitio.ModeRPCAsync)
	ep := exitio.NewEndpoint(eng.NewQueue(), netsim.NewSocket(e.plat, 4096))
	defer ep.Close()
	q := ep.Queue()
	step := func(what string, err error, staged int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if q.Staged() != staged {
			t.Fatalf("%s: %d ops staged, want %d", what, q.Staged(), staged)
		}
	}
	step("recv", ep.Recv(e.th, 32), 0)
	step("async send", ep.Send(e.th, 32), 1)
	step("linked recv", ep.Recv(e.th, 32), 0)
	step("async send", ep.Send(e.th, 32), 1)
	step("second async send", ep.Send(e.th, 32), 1)
	step("flush", ep.Flush(e.th), 0)
	if st := eng.Stats(); st.Doorbells != 4 || st.Ops != 5 || st.Linked != 1 {
		t.Fatalf("stats = %+v, want 4 doorbells / 5 ops / 1 linked", st)
	}
	if err := q.SetMode(e.th, exitio.ModeRPCSync); err != nil {
		t.Fatal(err)
	}
	step("sync send", ep.Send(e.th, 32), 0)
}

// A failing op cancels the rest of its chain but not the next chain.
func TestChainCancelOnError(t *testing.T) {
	e, eng := newEnv(t, exitio.ModeRPCSync)
	fs := fsim.NewFS(e.plat)
	buf := make([]byte, 16)
	q := eng.NewQueue()

	q.Push(exitio.Pwrite{FS: fs, FD: 999, Off: 0, Data: buf}) // bad fd
	q.PushLinked(exitio.Pread{FS: fs, FD: 999, Off: 0, Buf: buf})
	q.Push(exitio.Open{FS: fs, Name: "/ok"}) // separate chain, still runs
	cqes, err := q.SubmitAndWait(e.th)
	if err != nil {
		t.Fatal(err)
	}
	if len(cqes) != 3 {
		t.Fatalf("got %d completions, want 3", len(cqes))
	}
	if !errors.Is(cqes[0].Err, fsim.ErrBadFD) {
		t.Fatalf("pwrite err = %v, want ErrBadFD", cqes[0].Err)
	}
	if !errors.Is(cqes[1].Err, exitio.ErrCanceled) {
		t.Fatalf("linked pread err = %v, want ErrCanceled", cqes[1].Err)
	}
	if cqes[2].Err != nil || cqes[2].N < 3 {
		t.Fatalf("open CQE = %+v, want a valid fd", cqes[2])
	}
	if got := exitio.FirstErr(cqes); !errors.Is(got, fsim.ErrBadFD) {
		t.Fatalf("FirstErr = %v, want the root-cause ErrBadFD", got)
	}
}

// Async submissions reap in submission order, and Reap/WaitN behave as
// documented while chains are in flight.
func TestAsyncSubmitReapOrder(t *testing.T) {
	e, eng := newEnv(t, exitio.ModeRPCAsync)
	fs := fsim.NewFS(e.plat)
	q := eng.NewQueue()
	q.Push(exitio.Open{FS: fs, Name: "/log"})
	cqes, err := q.SubmitAndWait(e.th)
	if err != nil {
		t.Fatal(err)
	}
	fd := cqes[0].N

	const n = 16
	data := make([]byte, 64)
	for i := 0; i < n; i++ {
		q.PushTagged(exitio.Pwrite{FS: fs, FD: fd, Off: uint64(i * 64), Data: data}, uint64(i))
		if err := q.Submit(e.th); err != nil {
			t.Fatal(err)
		}
	}
	got := q.WaitN(e.th, n)
	if len(got) != n {
		t.Fatalf("WaitN(%d) returned %d completions", n, len(got))
	}
	for i, c := range got {
		if c.Tag != uint64(i) || c.Err != nil || c.N != 64 {
			t.Fatalf("completion %d out of order or failed: %+v", i, c)
		}
	}
	if extra := q.Reap(e.th); len(extra) != 0 {
		t.Fatalf("Reap after drain returned %d completions", len(extra))
	}
}

// Submitting into a stopped pool surfaces rpc.ErrStopped.
func TestSubmitStoppedPool(t *testing.T) {
	for _, mode := range []exitio.Mode{exitio.ModeRPCSync, exitio.ModeRPCAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			e, eng := newEnv(t, mode)
			sock := netsim.NewSocket(e.plat, 4096)
			defer sock.Close()
			e.pool.Stop()
			q := eng.NewQueue()
			q.Push(exitio.Send{Sock: sock, N: 16})
			if _, err := q.SubmitAndWait(e.th); !errors.Is(err, rpc.ErrStopped) {
				t.Fatalf("submit on stopped pool = %v, want rpc.ErrStopped", err)
			}
			e.pool.Start() // hand a running pool back to Cleanup's Stop
		})
	}
}

// The async dispatch charges the enqueue at submit and settles residual
// latency at reap — never more than the sync mode's full charge for the
// same op sequence.
func TestAsyncChargesAtMostSync(t *testing.T) {
	run := func(mode exitio.Mode) uint64 {
		e, eng := newEnv(t, mode)
		sock := netsim.NewSocket(e.plat, 1<<16)
		defer sock.Close()
		sock.Deliver(make([]byte, 1024))
		q := eng.NewQueue()
		e.th.T.Reset()
		for i := 0; i < 200; i++ {
			q.Push(exitio.Recv{Sock: sock, N: 1052})
			if err := q.Submit(e.th); err != nil {
				panic(err)
			}
			e.th.T.Charge(5000) // compute to hide the I/O behind
			q.WaitN(e.th, 1)
		}
		return e.th.T.Cycles()
	}
	sync := run(exitio.ModeRPCSync)
	async := run(exitio.ModeRPCAsync)
	if async > sync {
		t.Fatalf("async charged %d cycles > sync %d for the same workload", async, sync)
	}
}

// The steady-state submit→dispatch→reap cycle recycles its chain
// descriptors, CQE buffers and (in direct mode) runs the ops inline, so
// a warm queue must not allocate per submission — that is the hotpath
// budget=0 contract eleoslint enforces statically, checked dynamically
// here.
func TestSteadyStateSubmitReapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	e, eng := newEnv(t, exitio.ModeDirect)
	fs := fsim.NewFS(e.plat)
	q := eng.NewQueue()
	q.Push(exitio.Open{FS: fs, Name: "/warm"})
	cqes, err := q.SubmitAndWait(e.th)
	if err != nil || exitio.FirstErr(cqes) != nil {
		t.Fatalf("open: %v %v", err, exitio.FirstErr(cqes))
	}
	fd := cqes[0].N
	data := make([]byte, 256)
	// Ops are reused across cycles as pointers: value receivers put *T in
	// each op's method set too, and boxing a pointer into the Op
	// interface does not allocate, whereas boxing the struct itself costs
	// one heap copy per Push.
	pw := &exitio.Pwrite{FS: fs, FD: fd, Off: 0, Data: data}
	pr := &exitio.Pread{FS: fs, FD: fd, Off: 0, Buf: data}
	// An endpoint request/response reuses the endpoint's own descriptors.
	ep := exitio.NewEndpoint(eng.NewQueue(), netsim.NewSocket(e.plat, 4096))
	defer ep.Close()
	cycle := func() {
		q.Push(pw)
		q.PushLinked(pr)
		if got, err := q.SubmitAndWait(e.th); err != nil || exitio.FirstErr(got) != nil {
			t.Fatalf("cycle: %v %v", err, exitio.FirstErr(got))
		}
		if err := ep.Recv(e.th, 64); err != nil {
			t.Fatalf("endpoint recv: %v", err)
		}
		if err := ep.Send(e.th, 64); err != nil {
			t.Fatalf("endpoint send: %v", err)
		}
	}
	cycle() // warm the chain pool, staged slices and CQE double buffers
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Fatalf("steady-state submit/reap allocates %v times per cycle, want 0", avg)
	}
}

// The async dispatch path must be steady-state allocation-free too:
// chains, futures, the pending FIFO and the CQE buffers all recycle.
// This pins the pending-list regression where draining the queue
// discarded the list's capacity and every subsequent submission
// reallocated it.
func TestSteadyStateAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	e, eng := newEnv(t, exitio.ModeRPCAsync)
	fs := fsim.NewFS(e.plat)
	q := eng.NewQueue()
	q.Push(exitio.Open{FS: fs, Name: "/warm"})
	cqes, err := q.SubmitAndWait(e.th)
	if err != nil || exitio.FirstErr(cqes) != nil {
		t.Fatalf("open: %v %v", err, exitio.FirstErr(cqes))
	}
	fd := cqes[0].N
	data := make([]byte, 256)
	pw := &exitio.Pwrite{FS: fs, FD: fd, Off: 0, Data: data}
	pr := &exitio.Pread{FS: fs, FD: fd, Off: 0, Buf: data}
	cycle := func() {
		q.Push(pw)
		q.PushLinked(pr)
		if err := q.Submit(e.th); err != nil {
			t.Fatal(err)
		}
		e.th.T.Charge(2000) // compute overlapping the in-flight chain
		if got := q.WaitN(e.th, 2); exitio.FirstErr(got) != nil {
			t.Fatalf("cycle: %v", exitio.FirstErr(got))
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the chain, request and buffer pools
	}
	// The rpc workers run on real goroutines, so tolerate stray runtime
	// allocations (timer wheels, GC bookkeeping) — the regression this
	// guards against costs a full 1.0 per cycle.
	if avg := testing.AllocsPerRun(200, cycle); avg > 0.5 {
		t.Fatalf("steady-state async submit/reap allocates %v times per cycle, want ~0", avg)
	}
}
