package exitio

// Tests for the live mode-switch seam: SetMode settles in-flight
// chains in order and counts only real switches.

import (
	"testing"

	"eleos/internal/netsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

func newModeEnv(t *testing.T) (*sgx.Platform, *sgx.Thread, *rpc.Pool) {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pool := rpc.NewPool(plat, 2, 64)
	pool.Start()
	t.Cleanup(pool.Stop)
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	return plat, th, pool
}

// SetMode with chains still in flight settles them under the old mode:
// their completions surface in submission order ahead of anything the
// new mode produces.
func TestSetModeSettlesPendingInOrder(t *testing.T) {
	plat, th, pool := newModeEnv(t)
	eng, err := NewEngine(ModeRPCAsync, pool)
	if err != nil {
		t.Fatal(err)
	}
	// One socket per in-flight chain: the pool's workers may run the
	// three chains at once.
	var socks [3]*netsim.Socket
	for i := range socks {
		socks[i] = netsim.NewSocket(plat, 1<<20)
		defer socks[i].Close()
	}
	sock := socks[0]
	q := eng.NewQueue()

	for i, sk := range socks {
		sk.Deliver(make([]byte, 16))
		q.PushTagged(Recv{Sock: sk, N: 16}, uint64(100+i))
		if err := q.Submit(th); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.SetMode(th, ModeRPCSync); err != nil {
		t.Fatal(err)
	}
	if got := q.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after SetMode", got)
	}
	// A synchronous chain after the switch lands behind the settled
	// async completions.
	sock.Deliver(make([]byte, 16))
	q.PushTagged(Recv{Sock: sock, N: 16}, 200)
	cqes, err := q.SubmitAndWait(th)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 101, 102, 200}
	if len(cqes) != len(want) {
		t.Fatalf("got %d completions, want %d", len(cqes), len(want))
	}
	for i, c := range cqes {
		if c.Tag != want[i] || c.Err != nil {
			t.Fatalf("cqe %d = tag %d err %v, want tag %d", i, c.Tag, c.Err, want[i])
		}
	}
}

// Round-trip through every reachable mode mid-stream: each request is
// served under a different dispatch mode on one queue, and the
// completion stream stays ordered and error-free. Switching to the same
// mode is a free no-op; switching to a pool mode on a poolless engine
// fails without corrupting the current mode.
func TestSetModeMidStreamRoundTrip(t *testing.T) {
	plat, th, pool := newModeEnv(t)
	eng, err := NewEngine(ModeRPCSync, pool)
	if err != nil {
		t.Fatal(err)
	}
	sock := netsim.NewSocket(plat, 1<<20)
	defer sock.Close()
	q := eng.NewQueue()

	modes := []Mode{ModeRPCSync, ModeRPCAsync, ModeOCall, ModeRPCAsync, ModeRPCSync}
	var got []uint64
	for i, m := range modes {
		if err := q.SetMode(th, m); err != nil {
			t.Fatal(err)
		}
		sock.Deliver(make([]byte, 8))
		q.PushTagged(Recv{Sock: sock, N: 8}, uint64(i))
		q.PushLinkedTagged(Send{Sock: sock, N: 8}, uint64(i))
		cqes, err := q.SubmitAndWait(th)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cqes {
			if c.Err != nil {
				t.Fatalf("mode %v: cqe err %v", m, c.Err)
			}
			got = append(got, c.Tag)
		}
	}
	if len(got) != 2*len(modes) {
		t.Fatalf("got %d completions, want %d", len(got), 2*len(modes))
	}
	for i, tag := range got {
		if tag != uint64(i/2) {
			t.Fatalf("completion %d has tag %d, want %d", i, tag, i/2)
		}
	}
	if st := eng.Stats(); st.ModeSwitches != 4 {
		t.Fatalf("ModeSwitches = %d, want 4 (the no-op switch is free)", st.ModeSwitches)
	}

	poolless, err := NewEngine(ModeDirect, nil)
	if err != nil {
		t.Fatal(err)
	}
	host := plat.NewHostThread(0)
	pq := poolless.NewQueue()
	if err := pq.SetMode(host, ModeRPCAsync); err == nil {
		t.Fatal("SetMode to a pool mode on a poolless engine succeeded")
	}
	if pq.Mode() != ModeDirect {
		t.Fatalf("failed SetMode corrupted the mode: %v", pq.Mode())
	}
}
