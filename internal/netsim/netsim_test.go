package netsim

import (
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

func TestDeliverRecvDataFlow(t *testing.T) {
	p := newPlat(t)
	s := NewSocket(p, 64<<10)
	defer s.Close()
	th := p.NewHostThread(cache.CoSDefault)

	payload := []byte("request bytes over the wire")
	s.Deliver(payload)
	n := s.Recv(th.HostContext(), len(payload))
	if n != len(payload) {
		t.Fatalf("recv returned %d", n)
	}
	got := make([]byte, len(payload))
	th.HostContext().Read(s.UserBuf(), got)
	if string(got) != string(payload) {
		t.Fatalf("staged payload %q", got)
	}
}

// Like recv(2) and send(2), a transfer larger than the user buffer
// moves only what fits, and the returned count says so.
func TestTransfersClampToUserBuffer(t *testing.T) {
	p := newPlat(t)
	s := NewSocket(p, 4096)
	defer s.Close()
	h := p.NewHostThread(cache.CoSDefault).HostContext()
	if n := s.Recv(h, 100); n != 100 {
		t.Fatalf("Recv(100) = %d", n)
	}
	if n := s.Recv(h, 8192); n != 4096 {
		t.Fatalf("Recv(8192) = %d, want the 4096-byte buffer", n)
	}
	if n := s.Send(h, 8192); n != 4096 {
		t.Fatalf("Send(8192) = %d, want the 4096-byte buffer", n)
	}
}

func TestRecvChargesSyscallAndBuffers(t *testing.T) {
	p := newPlat(t)
	s := NewSocket(p, 64<<10)
	defer s.Close()
	th := p.NewHostThread(cache.CoSDefault)
	m := p.Model

	before := th.T.Cycles()
	s.Recv(th.HostContext(), 1024)
	small := th.T.Cycles() - before
	if small <= m.Syscall {
		t.Fatal("recv charged no buffer traffic")
	}
	before = th.T.Cycles()
	s.Recv(th.HostContext(), 16<<10)
	large := th.T.Cycles() - before
	if large <= small {
		t.Fatal("larger recv must cost more (its pollution scales)")
	}
}

func TestRecvPollutionRotates(t *testing.T) {
	// Consecutive receives must touch fresh kernel lines (skb slab
	// churn), not re-hit one warm buffer — the LLC miss count over many
	// calls should stay high.
	p := newPlat(t)
	s := NewSocket(p, 64<<10)
	defer s.Close()
	th := p.NewHostThread(cache.CoSDefault)
	for i := 0; i < 16; i++ {
		s.Recv(th.HostContext(), 1024)
	}
	st := p.LLC.Stats()
	if st.Misses < st.Hits {
		t.Fatalf("kernel path self-cached: %d misses, %d hits", st.Misses, st.Hits)
	}
}

func TestWireBounds(t *testing.T) {
	// 10 Gb/s carries at most ~812k minimum-size request/response pairs
	// per second of 1500-byte frames; sanity-check magnitudes.
	if tp := LinkBoundThroughput(256 << 10); tp < 4000 || tp > 5000 {
		t.Fatalf("256KB requests: %v req/s, want ≈4.6k on 10GbE", tp)
	}
	if got := CapToLink(1e9, 1500); got >= 1e9 {
		t.Fatal("cap did not bound an absurd CPU throughput")
	}
	if got := CapToLink(100, 1500); got != 100 {
		t.Fatal("cap must not lower sub-link throughput")
	}
	if WireSeconds(3000) <= WireSeconds(1500) {
		t.Fatal("wire time must grow with size")
	}
}

func TestOwnerGuardSequentialUse(t *testing.T) {
	// The owner guard must be invisible to well-behaved callers:
	// repeated Recv/Send from one thread, then from a different thread,
	// all pass (the guard clears between calls — it is not an affinity
	// check).
	p := newPlat(t)
	s := NewSocket(p, 64<<10)
	defer s.Close()
	th1 := p.NewHostThread(cache.CoSDefault)
	th2 := p.NewHostThread(cache.CoSDefault)
	for i := 0; i < 4; i++ {
		s.Deliver([]byte("x"))
		s.Recv(th1.HostContext(), 64)
		s.Send(th2.HostContext(), 64)
	}
	if got := s.owner.Load(); got != 0 {
		t.Fatalf("owner guard left set to %d after sequential use", got)
	}
}

func TestOwnerGuardPanicsOnConcurrentUse(t *testing.T) {
	// Simulate a second thread being mid-Recv by pre-setting the owner
	// word, exactly the state a racing CAS would observe.
	p := newPlat(t)
	s := NewSocket(p, 64<<10)
	defer s.Close()
	th := p.NewHostThread(cache.CoSDefault)

	s.owner.Store(int64(99) + 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Recv on a busy socket did not panic")
		}
	}()
	s.Recv(th.HostContext(), 64)
}
