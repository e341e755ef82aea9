package eleos

import (
	"bytes"
	"math/rand"
	"testing"

	"eleos/internal/epoch"
)

func newRuntime(t testing.TB) *Runtime {
	t.Helper()
	rt, err := NewRuntime()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestRuntimeEnclaveLifecycle(t *testing.T) {
	rt := newRuntime(t)
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()
	if ctx.Thread().Enclave() != encl.Raw() {
		t.Fatal("context bound to wrong enclave")
	}
}

func TestPtrRoundTripBeyondEPC(t *testing.T) {
	rt := newRuntime(t)
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	p, err := ctx.Malloc(64 << 20) // 8x the page cache
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(want)
	if err := p.WriteAt(48<<20, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := p.ReadAt(48<<20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("facade readback mismatch")
	}
	st := rt.Stats().Heaps[0]
	if st.MajorFaults == 0 {
		t.Fatal("expected SUVM paging on an 8x working set")
	}
	if err := p.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestPtrCursorOps(t *testing.T) {
	rt := newRuntime(t)
	encl, _ := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	p, _ := ctx.Malloc(16 << 10)
	if err := p.WriteU64(0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if !p.Linked() {
		t.Fatal("write did not link")
	}
	if err := p.Seek(0); err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadU64()
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	if err := p.Advance(8192); err != nil {
		t.Fatal(err)
	}
	if p.Linked() {
		t.Fatal("page crossing did not unlink")
	}
	p.Unlink()
}

func TestExitlessVsOCall(t *testing.T) {
	rt := newRuntime(t)
	encl, _ := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	exits0, ocalls0, _, _, _ := encl.Raw().Stats().Snapshot()
	for i := 0; i < 10; i++ {
		ctx.Exitless(func(h *HostCtx) { h.Syscall(nil) })
	}
	exits1, _, _, _, _ := encl.Raw().Stats().Snapshot()
	if exits1 != exits0 {
		t.Fatalf("Exitless caused %d exits", exits1-exits0)
	}
	ctx.OCall(func(h *HostCtx) { h.Syscall(nil) })
	exits2, ocalls2, _, _, _ := encl.Raw().Stats().Snapshot()
	if exits2 != exits1+1 || ocalls2 != ocalls0+1 {
		t.Fatalf("OCall accounting: exits %d->%d, ocalls %d->%d", exits1, exits2, ocalls0, ocalls2)
	}
}

func TestDirectAllocation(t *testing.T) {
	rt := newRuntime(t)
	encl, _ := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	p, err := ctx.MallocDirect(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("sub-page sealed")
	if err := p.WriteAt(3000, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := p.ReadAt(3000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("direct readback mismatch")
	}
	if st := rt.Stats().Heaps[0]; st.DirectWrites == 0 || st.DirectReads == 0 {
		t.Fatalf("direct counters: %+v", st)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	rt := newRuntime(t)
	encl, _ := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()
	c0 := ctx.Cycles()
	p, _ := ctx.Malloc(1 << 20)
	_ = p.WriteAt(0, make([]byte, 4096))
	if ctx.Cycles() <= c0 {
		t.Fatal("work consumed no virtual time")
	}
	if ctx.Elapsed() <= 0 {
		t.Fatal("elapsed not positive")
	}
}

func TestSegmentTransferViaFacade(t *testing.T) {
	rt := newRuntime(t)
	a, _ := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	b, _ := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	defer a.Destroy()
	defer b.Destroy()
	ctxA, ctxB := a.NewContext(), b.NewContext()
	defer ctxA.Close()
	defer ctxB.Close()

	seg, err := rt.NewSegment(2<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := ctxA.Attach(seg)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cross-enclave, sealed, never re-encrypted")
	if err := pa.WriteAt(1<<20, msg); err != nil {
		t.Fatal(err)
	}
	if err := ctxA.Detach(pa); err != nil {
		t.Fatal(err)
	}
	pb, err := ctxB.Attach(seg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := pb.ReadAt(1<<20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("segment transfer lost data: %q", got)
	}
	if err := ctxB.Detach(pb); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeAccessorsAndDefaults(t *testing.T) {
	rt, err := NewRuntime() // no options: defaults fill in
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Platform() == nil || rt.Pool() == nil {
		t.Fatal("accessors returned nil")
	}
	if rt.Platform().Driver.NumFrames() == 0 {
		t.Fatal("default platform has no PRM")
	}
}

// TestBackgroundSwapperViaFacade pumps an enclave's swapper through
// Ctx.Pump, one epoch of the context's clock per pump: EPC++ stays at
// full size alone, deflates when a second enclave halves the PRM share
// and re-inflates when that enclave leaves.
func TestBackgroundSwapperViaFacade(t *testing.T) {
	rt := newRuntime(t)
	// 40MB fits a lone enclave's share of the 93MB PRM, but not half
	// of it once a second enclave arrives.
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 40 << 20, Swapper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()
	pumpUntil := func(cond func() bool, what string) {
		for i := 0; !cond(); i++ {
			if i == 8 {
				t.Fatalf("no %s after %d pumped epochs (frames=%d)", what, i, encl.Heap().ActiveFrames())
			}
			ctx.Thread().T.Charge(epoch.DefaultEvery)
			ctx.Pump()
		}
	}
	full := int((40 << 20) / 4096)
	pumpUntil(func() bool { return encl.Heap().ActiveFrames() == full }, "full size")
	e2, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pumpUntil(func() bool { return encl.Heap().ActiveFrames() < full }, "deflation")
	e2.Destroy()
	pumpUntil(func() bool { return encl.Heap().ActiveFrames() == full }, "re-inflation")
}

// TestOffEpochPumpIsFree checks that with the tuner, the fleet
// controller and the swapper all enabled, a Ctx.Pump that crosses no
// epoch boundary allocates nothing and charges the context nothing:
// serving loops call it once per request.
func TestOffEpochPumpIsFree(t *testing.T) {
	rt, err := NewRuntime(WithWorkerBounds(1, 4), WithFleetBalloon(FleetPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20, Swapper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()
	ctx.IO()
	ctx.Pump() // the first pump starts every epoch clock
	before := ctx.Cycles()
	allocs := testing.AllocsPerRun(100, func() {
		if ctx.Pump() {
			t.Fatal("an epoch fired on a context whose clock did not move")
		}
	})
	if got := ctx.Cycles(); got != before {
		t.Fatalf("off-epoch pumps charged the context %d cycles", got-before)
	}
	if allocs != 0 {
		t.Fatalf("off-epoch Pump allocates %.1f times", allocs)
	}
}

func TestHeapConfigPassthrough(t *testing.T) {
	rt := newRuntime(t)
	encl, err := rt.NewEnclave(EnclaveConfig{
		Heap: HeapConfig{PageCacheBytes: 8 << 20, PageSize: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	if got := encl.Heap().PageSize(); got != 8192 {
		t.Fatalf("page size %d not passed through", got)
	}
	if _, err := rt.NewEnclave(EnclaveConfig{}); err == nil {
		t.Fatal("enclave without page cache size accepted")
	}
}
