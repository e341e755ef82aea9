package sgx

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"eleos/internal/cache"
	"eleos/internal/phys"
)

func testPlatform(t testing.TB, prmBytes uint64) *Platform {
	t.Helper()
	p, err := NewPlatform(Config{UsablePRMBytes: prmBytes})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func enterThread(t testing.TB, e *Enclave) *Thread {
	t.Helper()
	th := e.NewThread()
	th.Enter()
	return th
}

func TestEnclaveReadBackSmall(t *testing.T) {
	p := testPlatform(t, 4<<20)
	e, err := p.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := enterThread(t, e)

	addr := e.Alloc(64 << 10)
	want := make([]byte, 64<<10)
	for i := range want {
		want[i] = byte(i * 7)
	}
	th.Write(addr, want)
	got := make([]byte, len(want))
	th.Read(addr, got)
	if !bytes.Equal(got, want) {
		t.Fatal("enclave memory readback mismatch")
	}
}

func TestEnclavePagingPreservesData(t *testing.T) {
	// Working set 4x the PRM: every page gets evicted and paged back at
	// least once; data must survive the seal/unseal round trips.
	p := testPlatform(t, 1<<20) // 256 frames
	e, err := p.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := enterThread(t, e)

	const size = 4 << 20
	addr := e.Alloc(size)
	buf := make([]byte, phys.PageSize)
	for pg := 0; pg < size/phys.PageSize; pg++ {
		for i := range buf {
			buf[i] = byte(pg + i)
		}
		th.Write(addr+uint64(pg*phys.PageSize), buf)
	}
	st := p.Driver.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected hardware evictions with %d-byte working set in 1 MiB PRM", size)
	}
	for pg := 0; pg < size/phys.PageSize; pg++ {
		th.Read(addr+uint64(pg*phys.PageSize), buf)
		for i := range buf {
			if buf[i] != byte(pg+i) {
				t.Fatalf("page %d byte %d: got %d want %d", pg, i, buf[i], byte(pg+i))
			}
		}
	}
	st = p.Driver.Stats()
	if st.PageIns == 0 {
		t.Fatal("expected ELDU page-ins on re-read")
	}
}

func TestDemandZero(t *testing.T) {
	p := testPlatform(t, 4<<20)
	e, _ := p.NewEnclave()
	th := enterThread(t, e)
	addr := e.Alloc(8 * phys.PageSize)
	buf := make([]byte, 3*phys.PageSize)
	th.Read(addr+100, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("untouched enclave memory not zero at %d: %d", i, b)
		}
	}
	if p.Driver.Stats().DemandZero == 0 {
		t.Fatal("expected demand-zero faults")
	}
}

func TestTamperedBackingPageDetected(t *testing.T) {
	p := testPlatform(t, 256<<10) // 64 frames
	e, _ := p.NewEnclave()
	th := enterThread(t, e)
	const size = 1 << 20 // 256 pages; forces eviction
	addr := e.Alloc(size)
	buf := make([]byte, phys.PageSize)
	for pg := 0; pg < size/phys.PageSize; pg++ {
		th.Write(addr+uint64(pg*phys.PageSize), buf)
	}
	// Find an evicted page and corrupt its blob.
	var victim uint64
	found := false
	for pg := 0; pg < size/phys.PageSize && !found; pg++ {
		a := addr + uint64(pg*phys.PageSize)
		if err := e.CorruptBackingPage(a); err == nil {
			victim, found = a, true
		}
	}
	if !found {
		t.Fatal("no evicted page found to corrupt")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a tampered EPC page did not panic")
		}
	}()
	th.Read(victim, buf)
}

func TestExitCostsAndTLBFlush(t *testing.T) {
	p := testPlatform(t, 4<<20)
	e, _ := p.NewEnclave()
	th := enterThread(t, e)
	addr := e.Alloc(16 * phys.PageSize)
	buf := make([]byte, 8)
	th.Read(addr, buf) // touch: populates TLB
	missesBefore := th.TLB.Misses()
	th.Read(addr, buf) // should hit TLB
	if th.TLB.Misses() != missesBefore {
		t.Fatal("expected TLB hit on repeated access")
	}
	c0 := th.T.Cycles()
	th.OCall(func(h *HostCtx) { h.Syscall(nil) })
	direct := th.T.Cycles() - c0
	m := p.Model
	wantMin := m.ExitRoundTrip() + m.Syscall
	if direct < wantMin {
		t.Fatalf("OCALL cost %d below direct floor %d", direct, wantMin)
	}
	// The exit must have flushed enclave TLB entries.
	th.Read(addr, buf)
	if th.TLB.Misses() == missesBefore {
		t.Fatal("expected TLB miss after OCALL (exit flushes enclave entries)")
	}
	if got, _, _, _, _ := e.stats.Exits.Load(), 0, 0, 0, 0; got == 0 {
		t.Fatal("exit not counted")
	}
}

func TestFaultCostMatchesPaperDecomposition(t *testing.T) {
	// Sustained random 4K accesses over a working set ≫ PRM should cost
	// ≈40k cycles per fault (25k direct + ~7k exit + ~8k indirect), §2.3.
	p := testPlatform(t, 8<<20)
	e, _ := p.NewEnclave()
	th := enterThread(t, e)
	const size = 64 << 20
	addr := e.Alloc(size)
	buf := make([]byte, phys.PageSize)
	rng := rand.New(rand.NewSource(1))
	// Warm: touch everything once.
	for pg := 0; pg < size/phys.PageSize; pg++ {
		th.Write(addr+uint64(pg*phys.PageSize), buf)
	}
	p.Driver.ResetStats()
	th.T.Reset()
	const ops = 2000
	for i := 0; i < ops; i++ {
		off := uint64(rng.Intn(size/phys.PageSize)) * phys.PageSize
		th.Read(addr+off, buf)
	}
	st := p.Driver.Stats()
	if st.Faults < ops/2 {
		t.Fatalf("expected mostly-faulting workload, got %d faults for %d ops", st.Faults, ops)
	}
	perFault := float64(th.T.Cycles()) / float64(st.Faults)
	if perFault < 30000 || perFault > 60000 {
		t.Fatalf("per-fault cost %.0f cycles, want ≈40k (30k..60k)", perFault)
	}
}

func TestMultiEnclaveQuota(t *testing.T) {
	p := testPlatform(t, 4<<20)
	e1, _ := p.NewEnclave()
	if got := p.Driver.AvailableEPCBytes(); got != 4<<20 {
		t.Fatalf("single enclave share = %d, want %d", got, 4<<20)
	}
	e2, _ := p.NewEnclave()
	if got := p.Driver.AvailableEPCBytes(); got != 2<<20 {
		t.Fatalf("two-enclave share = %d, want %d", got, 2<<20)
	}
	e2.Destroy()
	if got := p.Driver.AvailableEPCBytes(); got != 4<<20 {
		t.Fatalf("share after destroy = %d, want %d", got, 4<<20)
	}
	e1.Destroy()
}

func TestPinnedPagesSurviveReclaim(t *testing.T) {
	p := testPlatform(t, 1<<20) // 256 frames
	e, _ := p.NewEnclave()
	th := enterThread(t, e)

	pinned := e.AllocPages(32)
	e.Pin(th, pinned, 32*phys.PageSize)
	// Stamp pinned pages.
	buf := make([]byte, phys.PageSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	for pg := uint64(0); pg < 32; pg++ {
		th.Write(pinned+pg*phys.PageSize, buf)
	}
	faultsAfterPin := p.Driver.Stats().Faults

	// Thrash with 4x PRM of unpinned data.
	data := e.Alloc(4 << 20)
	for pg := 0; pg < (4<<20)/phys.PageSize; pg++ {
		th.Write(data+uint64(pg*phys.PageSize), buf)
	}
	// Pinned pages must still be resident: re-reading them causes no faults.
	before := p.Driver.Stats().Faults
	for pg := uint64(0); pg < 32; pg++ {
		th.Read(pinned+pg*phys.PageSize, buf[:16])
		if buf[0] != 0xAB {
			t.Fatalf("pinned page %d lost contents", pg)
		}
	}
	if got := p.Driver.Stats().Faults; got != before {
		t.Fatalf("pinned pages faulted: %d new faults (pin happened at fault count %d)", got-before, faultsAfterPin)
	}
}

func TestConcurrentEnclaveThreads(t *testing.T) {
	p := testPlatform(t, 2<<20)
	e, _ := p.NewEnclave()
	const size = 8 << 20 // 4x PRM: heavy paging under concurrency
	addr := e.Alloc(size)

	var wg sync.WaitGroup
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := enterThread(t, e)
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 256)
			region := uint64(w) * (size / workers) // disjoint regions
			for i := 0; i < 400; i++ {
				off := region + uint64(rng.Intn(size/workers-256))
				stamp := byte(w + 1)
				for j := range buf {
					buf[j] = stamp
				}
				th.Write(addr+off, buf)
				got := make([]byte, 256)
				th.Read(addr+off, got)
				for j := range got {
					if got[j] != stamp {
						errs <- fmt.Errorf("worker %d: readback mismatch at %#x", w, off)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.Driver.Stats().IPIs == 0 {
		t.Fatal("expected shootdown IPIs under multi-threaded paging")
	}
}

func TestLLCPartitioningIsolatesRPCWays(t *testing.T) {
	p := testPlatform(t, 4<<20)
	p.LLC.EnablePartitioning(4)
	encT := p.NewHostThread(cache.CoSEnclave)
	rpcT := p.NewHostThread(cache.CoSRPC)

	// Enclave thread fills a region that maps into its 12 ways.
	base := p.AllocHost(1 << 20)
	buf := make([]byte, 1<<20)
	encT.HostContext().Write(base, buf)
	// RPC thread streams 8 MiB; without CAT this would evict everything.
	streamBase := p.AllocHost(8 << 20)
	rpcT.HostContext().Touch(streamBase, 8<<20, false)

	p.LLC.ResetStats()
	encT.HostContext().Read(base, buf)
	withCAT := p.LLC.Stats().Misses

	// Repeat without partitioning.
	p.LLC.DisablePartitioning()
	encT.HostContext().Write(base, buf)
	rpcT.HostContext().Touch(streamBase, 8<<20, false)
	p.LLC.ResetStats()
	encT.HostContext().Read(base, buf)
	withoutCAT := p.LLC.Stats().Misses

	if withCAT >= withoutCAT {
		t.Fatalf("CAT did not protect enclave lines: misses with=%d without=%d", withCAT, withoutCAT)
	}
}

// TestTouchEmptyRangeIsFree pins that an empty or negative Touch walks
// no page: the last page of [addr, addr+n) is undefined for n <= 0, and
// at an address inside a page the old bound named that page.
func TestTouchEmptyRangeIsFree(t *testing.T) {
	p := testPlatform(t, 4<<20)
	for _, n := range []int{0, -1} {
		th := p.NewHostThread(cache.CoSDefault)
		th.HostContext().Touch(phys.HostBase+100, n, false)
		if c, m := th.T.Cycles(), th.TLB.Misses(); c != 0 || m != 0 {
			t.Errorf("Touch(HostBase+100, %d) charged %d cycles and %d TLB misses, want 0 and 0", n, c, m)
		}
	}
}
