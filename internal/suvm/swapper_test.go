package suvm

import (
	"testing"

	"eleos/internal/epoch"
)

// TestBackgroundSwapperDeflatesUnderPressure pumps the swapper from a
// serving thread whose clock advances one epoch per pump, as Ctx.Pump
// does: it balloons EPC++ down when a second enclave halves the PRM
// share and back up when that enclave leaves, and never charges the
// pumping thread.
func TestBackgroundSwapperDeflatesUnderPressure(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 16 << 20, BackingBytes: 64 << 20})
	sw := e.h.NewSwapper()
	server := e.encl.NewThread()
	pumpUntil := func(cond func() bool, what string) {
		for i := 0; !cond(); i++ {
			if i == 8 {
				t.Fatalf("no %s after %d pumped epochs (frames=%d)", what, i, e.h.ActiveFrames())
			}
			server.T.Charge(epoch.DefaultEvery)
			before := server.T.Cycles()
			sw.Pump(server)
			if got := server.T.Cycles(); got != before {
				t.Fatalf("Pump charged the pumping thread %d cycles", got-before)
			}
		}
	}
	// Initially the single enclave keeps its full configuration.
	full := int((16 << 20) / 4096)
	pumpUntil(func() bool { return e.h.ActiveFrames() == full }, "full size")

	// A second enclave halves the PRM share; the swapper must deflate.
	e2, err := e.plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	pumpUntil(func() bool { return e.h.ActiveFrames() < full }, "deflation")

	// And re-inflate after the pressure goes away.
	e2.Destroy()
	pumpUntil(func() bool { return e.h.ActiveFrames() == full }, "re-inflation")
}

func TestReclaimFreePoolMovesEvictionOffFaultPath(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 1 << 20, BackingBytes: 64 << 20}) // 256 frames
	p, _ := e.h.Malloc(4 << 20)
	buf := make([]byte, 4096)
	for off := uint64(0); off+4096 <= p.Size(); off += 4096 {
		_ = p.WriteAt(e.th, off, buf)
	}
	// Pool is empty after the fill; a swapper thread reclaims 32 frames.
	swapTh := e.encl.NewThread()
	swapTh.Enter()
	if got := e.h.ReclaimFreePool(swapTh, 32); got != 32 {
		t.Fatalf("reclaimed %d frames, want 32", got)
	}
	if swapTh.T.Cycles() == 0 {
		t.Fatal("reclaim charged no work to the swapper thread")
	}
	// The next 32 faults must not evict anything further: write-backs
	// were prepaid by the swapper.
	e.h.ResetStats()
	for i := 0; i < 32; i++ {
		_ = p.WriteAt(e.th, uint64(i)*4096, buf)
	}
	st := e.h.Stats()
	if st.MajorFaults != 32 {
		t.Fatalf("faults %d want 32", st.MajorFaults)
	}
	if st.Evictions != 0 {
		t.Fatalf("faults still evicted %d pages despite the reclaimed pool", st.Evictions)
	}
	// Target is clamped to half the cache.
	if got := e.h.ReclaimFreePool(swapTh, 10_000); got > 128 {
		t.Fatalf("reclaim overshot the clamp: %d", got)
	}
}
