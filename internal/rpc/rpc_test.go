package rpc

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"eleos/internal/cache"
	"eleos/internal/sgx"
)

func newPlat(t testing.TB) *sgx.Platform {
	t.Helper()
	p, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRingFIFOSingleThreaded(t *testing.T) {
	r := newRing(8)
	var reqs [20]request
	for i := 0; i < 8; i++ {
		r.enqueue(&reqs[i])
	}
	for i := 0; i < 8; i++ {
		if got := r.dequeueThrough(math.MaxUint64); got != &reqs[i] {
			t.Fatalf("dequeue %d out of order", i)
		}
	}
	if r.dequeueThrough(math.MaxUint64) != nil || !r.empty() {
		t.Fatal("empty ring returned a request")
	}
}

// Many producers, one consumer (a ring's consumer is whoever holds its
// worker's run lock): each producer's requests all arrive, once each
// and in the order it published them.
func TestRingConcurrentProducersSingleConsumer(t *testing.T) {
	r := newRing(64)
	const producers, each = 4, 5000
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < each; i++ {
				// ticket is free in a bare ring: it carries the
				// producer and its sequence number.
				r.enqueue(&request{ticket: uint64(p)<<32 | uint64(i)})
			}
		}(p)
	}
	var next [producers]uint64
	for got := 0; got < producers*each; {
		req := r.dequeueThrough(math.MaxUint64)
		if req == nil {
			runtime.Gosched()
			continue
		}
		p, seq := req.ticket>>32, req.ticket&(1<<32-1)
		if seq != next[p] {
			t.Fatalf("producer %d: got request %d, want %d", p, seq, next[p])
		}
		next[p]++
		got++
	}
	pwg.Wait()
	if !r.empty() {
		t.Fatal("ring not empty after every request was consumed")
	}
}

func TestCallExecutesWorkWithoutExits(t *testing.T) {
	plat := newPlat(t)
	encl, _ := plat.NewEnclave()
	th := encl.NewThread()
	th.Enter()
	pool := NewPool(plat, 2, 64)
	pool.Start()
	defer pool.Stop()

	ran := false
	exits0, _, _, _, _ := encl.Stats().Snapshot()
	pool.Call(th, func(h *sgx.HostCtx) {
		h.Syscall(nil)
		ran = true
	})
	exits1, _, _, _, _ := encl.Stats().Snapshot()
	if !ran {
		t.Fatal("delegated call did not run")
	}
	if exits1 != exits0 {
		t.Fatal("exit-less call exited the enclave")
	}
	if pool.Stats().Calls != 1 {
		t.Fatalf("call count %+v", pool.Stats())
	}
}

func TestCallChargesEnqueueWorkAndPoll(t *testing.T) {
	plat := newPlat(t)
	encl, _ := plat.NewEnclave()
	th := encl.NewThread()
	th.Enter()
	pool := NewPool(plat, 1, 64)
	pool.Start()
	defer pool.Stop()
	m := plat.Model

	before := th.T.Cycles()
	pool.Call(th, func(h *sgx.HostCtx) { h.Syscall(nil) })
	got := th.T.Cycles() - before
	want := m.RPCEnqueue + m.Syscall + m.RPCPoll
	if got != want {
		t.Fatalf("call charged %d cycles, want %d (enqueue+work+poll)", got, want)
	}
	// And the synchronous wait is excluded from in-enclave time.
	if th.SyncEnclaveCycles() >= got {
		t.Fatal("worker cycles were attributed to in-enclave execution")
	}
}

func TestConcurrentCallersManyWorkers(t *testing.T) {
	plat := newPlat(t)
	encl, _ := plat.NewEnclave()
	pool := NewPool(plat, 3, 64)
	pool.Start()
	defer pool.Stop()

	var count atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := encl.NewThread()
			th.Enter()
			for i := 0; i < 500; i++ {
				pool.Call(th, func(h *sgx.HostCtx) { count.Add(1) })
			}
		}()
	}
	wg.Wait()
	if count.Load() != 2000 {
		t.Fatalf("ran %d of 2000 calls", count.Load())
	}
}

func TestWorkersUseRPCClassOfService(t *testing.T) {
	plat := newPlat(t)
	pool := NewPool(plat, 2, 64)
	for _, w := range pool.Workers() {
		if w.Enclave() != nil {
			t.Fatal("worker is an enclave thread")
		}
	}
	_ = cache.CoSRPC // workers are created with CoSRPC; verified via fig6b behaviour
}
