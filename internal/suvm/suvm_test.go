package suvm

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"eleos/internal/sgx"
)

// testEnv bundles a platform, enclave, entered thread and heap.
type testEnv struct {
	plat *sgx.Platform
	encl *sgx.Enclave
	th   *sgx.Thread
	h    *Heap
}

func newEnv(t testing.TB, cfg Config) *testEnv {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	h, err := New(encl, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{plat: plat, encl: encl, th: th, h: h}
}

func smallCfg() Config {
	return Config{PageCacheBytes: 64 << 10, BackingBytes: 64 << 20} // 16 frames
}

func TestMallocReadWriteRoundTrip(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, err := e.h.Malloc(100 << 10) // 25 pages ≫ 16 frames
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 100<<10)
	rng := rand.New(rand.NewSource(42))
	rng.Read(want)
	if err := p.WriteAt(e.th, 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := p.ReadAt(e.th, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SUVM readback mismatch across evictions")
	}
	st := e.h.Stats()
	if st.Evictions == 0 || st.WriteBacks == 0 {
		t.Fatalf("expected evictions with working set > EPC++: %+v", st)
	}
}

func TestFreshAllocationReadsZero(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(3 * 4096)
	buf := make([]byte, 3*4096)
	buf[0] = 0xFF
	if err := p.ReadAt(e.th, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh SUVM memory not zero at %d", i)
		}
	}
}

func TestLinkedAccessSkipsPageTable(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(4096)
	var b [8]byte
	if err := p.Write(e.th, b[:]); err != nil { // links
		t.Fatal(err)
	}
	if !p.Linked() {
		t.Fatal("spointer not linked after access")
	}
	st0 := e.h.Stats()
	for i := 0; i < 100; i++ {
		if err := p.Read(e.th, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	st1 := e.h.Stats()
	if st1.MinorFaults != st0.MinorFaults || st1.MajorFaults != st0.MajorFaults {
		t.Fatalf("linked accesses performed page-table lookups: %+v -> %+v", st0, st1)
	}
}

func TestAdvanceUnlinksAtPageBoundary(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(2 * 4096)
	if err := p.Write(e.th, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if !p.Linked() {
		t.Fatal("expected linked")
	}
	if err := p.Advance(e.th, 100); err != nil || !p.Linked() {
		t.Fatalf("in-page advance should keep the link (err=%v linked=%v)", err, p.Linked())
	}
	if err := p.Advance(e.th, 4096); err != nil {
		t.Fatal(err)
	}
	if p.Linked() {
		t.Fatal("page-boundary crossing must unlink (paper rule 2)")
	}
}

func TestCloneStartsUnlinked(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(4096)
	_ = p.Write(e.th, []byte{1})
	c := p.Clone()
	if c.Linked() {
		t.Fatal("clone must start unlinked (paper rule 1)")
	}
	p.Unlink(e.th)
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	e := newEnv(t, smallCfg()) // 16 frames
	var linked []*SPtr
	// Link 8 spointers, pinning 8 distinct pages.
	for i := 0; i < 8; i++ {
		p, err := e.h.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(e.th, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		linked = append(linked, p)
	}
	// Thrash the remaining frames.
	big, _ := e.h.Malloc(1 << 20)
	buf := make([]byte, 4096)
	for off := uint64(0); off < 1<<20; off += 4096 {
		_ = big.WriteAt(e.th, off, buf)
	}
	// Linked pages must still be resident and correct.
	for i, p := range linked {
		if !e.h.Resident(p, 0) {
			t.Fatalf("pinned page %d was evicted", i)
		}
		b, err := p.Get(e.th)
		if err != nil || b != byte(i+1) {
			t.Fatalf("pinned page %d: got %d err %v", i, b, err)
		}
		p.Unlink(e.th)
	}
}

func TestNoHardwareFaultsUnderSUVMPaging(t *testing.T) {
	// The headline property: SUVM paging does not exit the enclave.
	// With EPC++ sized within the PRM share, heavy SUVM paging causes
	// zero hardware EPC faults, zero exits, zero IPIs after setup.
	e := newEnv(t, Config{PageCacheBytes: 4 << 20, BackingBytes: 64 << 20})
	p, _ := e.h.Malloc(16 << 20) // 4x EPC++
	buf := make([]byte, 4096)

	// Warm one pass, then measure.
	for off := uint64(0); off+4096 <= p.Size(); off += 4096 {
		_ = p.WriteAt(e.th, off, buf)
	}
	e.plat.Driver.ResetStats()
	exits0, _, _, _, _ := e.encl.Stats().Snapshot()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		off := uint64(rng.Intn(int(p.Size()/4096))) * 4096
		_ = p.WriteAt(e.th, off, buf)
	}
	st := e.h.Stats()
	if st.MajorFaults < 1000 {
		t.Fatalf("expected heavy SUVM faulting, got %+v", st)
	}
	d := e.plat.Driver.Stats()
	exits1, _, _, _, _ := e.encl.Stats().Snapshot()
	if d.Faults != 0 || d.IPIs != 0 || exits1 != exits0 {
		t.Fatalf("SUVM paging caused hardware events: faults=%d ipis=%d exits=%d",
			d.Faults, d.IPIs, exits1-exits0)
	}
}

func TestCleanPagesSkipWriteBack(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(1 << 20)
	buf := make([]byte, 4096)
	// Populate everything (dirty) once.
	for off := uint64(0); off < 1<<20; off += 4096 {
		_ = p.WriteAt(e.th, off, buf)
	}
	e.h.ResetStats()
	// Read-only pass: every eviction should drop, not write back.
	for off := uint64(0); off < 1<<20; off += 4096 {
		_ = p.ReadAt(e.th, off, buf)
	}
	st := e.h.Stats()
	if st.CleanDrops == 0 {
		t.Fatalf("read-only workload produced no clean drops: %+v", st)
	}
	if st.WriteBacks > st.Evictions/10 {
		t.Fatalf("read-only workload wrote back too much: %+v", st)
	}
}

func TestWriteBackCleanAblation(t *testing.T) {
	cfg := smallCfg()
	cfg.WriteBackClean = true
	e := newEnv(t, cfg)
	p, _ := e.h.Malloc(1 << 20)
	buf := make([]byte, 4096)
	for off := uint64(0); off < 1<<20; off += 4096 {
		_ = p.WriteAt(e.th, off, buf)
	}
	e.h.ResetStats()
	for off := uint64(0); off < 1<<20; off += 4096 {
		_ = p.ReadAt(e.th, off, buf)
	}
	st := e.h.Stats()
	if st.CleanDrops != 0 {
		t.Fatalf("WriteBackClean must disable clean drops: %+v", st)
	}
	if st.WriteBacks != st.Evictions {
		t.Fatalf("WriteBackClean must write back every eviction: %+v", st)
	}
}

func TestTamperedBackingStoreDetected(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(1 << 20)
	stamp := bytes.Repeat([]byte{0x5A}, 4096)
	for off := uint64(0); off < 1<<20; off += 4096 {
		_ = p.WriteAt(e.th, off, stamp)
	}
	// Page 0 is long evicted; corrupt its ciphertext in host memory.
	if e.h.Resident(p, 0) {
		t.Skip("page 0 unexpectedly resident")
	}
	e.h.CorruptBacking(p, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("tampered SUVM page was accepted")
		}
	}()
	_ = p.ReadAt(e.th, 0, stamp)
}

func TestReplayedBackingStoreDetected(t *testing.T) {
	// Freshness: capture an old sealed blob, let the page be re-sealed
	// with new contents, then replay the old blob. Page-in must fail.
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(1 << 20)
	v1 := bytes.Repeat([]byte{0x11}, 4096)
	for off := uint64(0); off < 1<<20; off += 4096 {
		_ = p.WriteAt(e.th, off, v1)
	}
	if e.h.Resident(p, 0) {
		t.Skip("page 0 unexpectedly resident")
	}
	// Snapshot old ciphertext of page 0's backing bytes.
	old := make([]byte, 4096)
	e.plat.Host.ReadAt(p.base, old)
	// Rewrite page 0 with new content and force it out again.
	v2 := bytes.Repeat([]byte{0x22}, 4096)
	_ = p.WriteAt(e.th, 0, v2)
	for off := uint64(4096); off < 1<<20; off += 4096 {
		_ = p.ReadAt(e.th, off, v1)
	}
	if e.h.Resident(p, 0) {
		t.Skip("page 0 still resident after thrash")
	}
	// Replay the stale blob.
	e.plat.Host.WriteAt(p.base, old)
	defer func() {
		if recover() == nil {
			t.Fatal("replayed stale SUVM page was accepted (freshness violated)")
		}
	}()
	_ = p.ReadAt(e.th, 0, v1)
}

func TestDirectAccessRoundTrip(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, err := e.h.MallocDirect(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(want)
	if err := p.WriteAt(e.th, 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := p.ReadAt(e.th, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("direct-access readback mismatch")
	}
	st := e.h.Stats()
	if st.DirectReads == 0 || st.DirectWrites == 0 {
		t.Fatalf("direct counters not bumped: %+v", st)
	}
	if st.MajorFaults != 0 {
		t.Fatalf("direct access must bypass EPC++: %+v", st)
	}
}

func TestDirectReadAllocs(t *testing.T) {
	// The direct-access read path decrypts into pooled scratch buffers
	// (openSub appends into caller-owned space): a warm sub-page read
	// must not allocate a per-read plaintext copy. The two remaining
	// allocations are the 8-byte AAD encoding and AEAD internals.
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; count is meaningless")
	}
	e := newEnv(t, smallCfg())
	p, err := e.h.MallocDirect(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if err := p.WriteAt(e.th, 0, buf); err != nil {
		t.Fatal(err)
	}
	_ = p.ReadAt(e.th, 0, buf) // warm the scratch pool
	if avg := testing.AllocsPerRun(200, func() {
		_ = p.ReadAt(e.th, 0, buf)
	}); avg > 2 {
		t.Fatalf("direct sub-page read allocates %v times per call, want at most 2", avg)
	}
}

func TestDirectPartialAndMisalignedWrites(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.MallocDirect(8 << 10)
	// Write a pattern, then overwrite a misaligned span crossing a
	// sub-page boundary (the paper's unsupported case, our extension).
	base := bytes.Repeat([]byte{0xAA}, 8<<10)
	_ = p.WriteAt(e.th, 0, base)
	patch := bytes.Repeat([]byte{0xBB}, 600)
	_ = p.WriteAt(e.th, 800, patch) // 800..1400 crosses the 1024 boundary
	got := make([]byte, 8<<10)
	_ = p.ReadAt(e.th, 0, got)
	for i := range got {
		want := byte(0xAA)
		if i >= 800 && i < 1400 {
			want = 0xBB
		}
		if got[i] != want {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], want)
		}
	}
}

func TestDirectTamperDetected(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.MallocDirect(4 << 10)
	_ = p.WriteAt(e.th, 0, bytes.Repeat([]byte{1}, 4<<10))
	e.h.CorruptBacking(p, 10)
	buf := make([]byte, 16)
	if err := p.ReadAt(e.th, 0, buf); err == nil {
		t.Fatal("tampered direct sub-page was accepted")
	}
}

func TestFreeAndReuse(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(4096)
	_ = p.Write(e.th, []byte{1, 2, 3})
	if err := e.h.Free(e.th, p); err != nil {
		t.Fatal(err)
	}
	if err := e.h.Free(e.th, p); err == nil {
		t.Fatal("double free not detected")
	}
	q, err := e.h.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.h.Free(e.th, q) }()
}

func TestOutOfRangeAccesses(t *testing.T) {
	e := newEnv(t, smallCfg())
	p, _ := e.h.Malloc(100)
	buf := make([]byte, 8)
	if err := p.ReadAt(e.th, 96, buf); err == nil {
		t.Fatal("out-of-range read not rejected")
	}
	if err := p.WriteAt(e.th, 100, buf); err == nil {
		t.Fatal("out-of-range write not rejected")
	}
	if err := p.Seek(e.th, 101); err == nil {
		t.Fatal("out-of-range seek not rejected")
	}
	if err := p.Advance(e.th, -1); err == nil {
		t.Fatal("negative advance not rejected")
	}
}

func TestSoftFaultLatencyMatchesPaper(t *testing.T) {
	// §6.1.2: SUVM page-in ≈8.5k cycles (read faults), evict+page-in
	// ≈14k (write workloads). Allow generous bands: the shape that
	// matters is "3x-5x cheaper than the ≈40k hardware fault".
	e := newEnv(t, Config{PageCacheBytes: 4 << 20, BackingBytes: 128 << 20})
	p, _ := e.h.Malloc(32 << 20)
	buf := make([]byte, 4096)
	for off := uint64(0); off+4096 <= p.Size(); off += 4096 {
		_ = p.WriteAt(e.th, off, buf)
	}

	measure := func(write bool) float64 {
		rng := rand.New(rand.NewSource(9))
		const ops = 4000
		run := func() {
			for i := 0; i < ops; i++ {
				off := uint64(rng.Intn(int(p.Size()/4096))) * 4096
				if write {
					_ = p.WriteAt(e.th, off, buf)
				} else {
					_ = p.ReadAt(e.th, off, buf)
				}
			}
		}
		run() // reach steady state (EPC++ holds this access pattern's pages)
		e.h.ResetStats()
		run()
		st := e.h.Stats()
		if st.MajorFaults < ops/2 {
			t.Fatalf("not fault-bound: %+v", st)
		}
		return float64(st.FaultCycles) / float64(st.MajorFaults)
	}

	read := measure(false)
	write := measure(true)
	if read < 5000 || read > 13000 {
		t.Errorf("read fault cost %.0f cycles, want ≈8.5k", read)
	}
	if write < 9000 || write > 21000 {
		t.Errorf("write fault cost %.0f cycles, want ≈14k", write)
	}
	if write <= read {
		t.Errorf("write faults (%.0f) should cost more than read faults (%.0f)", write, read)
	}
}

func TestResizeShrinkAndGrow(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 1 << 20, BackingBytes: 64 << 20}) // 256 frames
	p, _ := e.h.Malloc(2 << 20)
	buf := make([]byte, 4096)
	for off := uint64(0); off < 2<<20; off += 4096 {
		_ = p.WriteAt(e.th, off, buf)
	}
	if err := e.h.ResizeTo(e.th, 256<<10); err != nil { // shrink to 64 frames
		t.Fatal(err)
	}
	if got := e.h.ActiveFrames(); got != 64 {
		t.Fatalf("ActiveFrames=%d want 64", got)
	}
	// Data must survive the shrink.
	want := bytes.Repeat([]byte{0x77}, 4096)
	_ = p.WriteAt(e.th, 0, want)
	got := make([]byte, 4096)
	_ = p.ReadAt(e.th, 0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("data lost across shrink")
	}
	if err := e.h.ResizeTo(e.th, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := e.h.ActiveFrames(); got != 256 {
		t.Fatalf("ActiveFrames=%d want 256 after grow", got)
	}
	_ = p.ReadAt(e.th, 0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("data lost across grow")
	}
}

// A shrink refused by a pinned frame must leave EPC++ as it found it:
// the frames above the pinned one stay enabled and allocatable, and
// when later faults fill them, the retried shrink evicts those pages
// instead of releasing the EPC under them.
func TestRefusedShrinkKeepsFramesConsistent(t *testing.T) {
	e := newEnv(t, smallCfg()) // 16 frames, drained in order 0, 1, 2, ...
	p, err := e.h.Malloc(16 << 12)
	if err != nil {
		t.Fatal(err)
	}
	page := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 4096) }
	write := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := p.WriteAt(e.th, uint64(i)<<12, page(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Pages 0..5 fill frames 0..5; a linked spointer pins page 5.
	write(0, 6)
	pin := p.Clone()
	if err := pin.Seek(e.th, 5<<12); err != nil {
		t.Fatal(err)
	}
	if err := pin.Read(e.th, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.h.ResizeTo(e.th, 4<<12); err == nil {
		t.Fatal("shrink past a pinned frame succeeded")
	}
	if got := e.h.ActiveFrames(); got != 16 {
		t.Fatalf("refused shrink left ActiveFrames = %d, want 16", got)
	}
	pin.Unlink(e.th)
	// Pages 6..9 fault into frames the refused shrink had reached.
	write(6, 10)
	if err := e.h.ResizeTo(e.th, 4<<12); err != nil {
		t.Fatal(err)
	}
	if err := e.h.ResizeTo(e.th, 16<<12); err != nil {
		t.Fatal(err)
	}
	// Fresh pages reuse the re-enabled frames.
	write(10, 16)
	got := make([]byte, 4096)
	for i := 0; i < 16; i++ {
		if err := p.ReadAt(e.th, uint64(i)<<12, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page(i)) {
			t.Fatalf("page %d lost its data across a refused shrink (first byte %d, want %d)", i, got[0], i+1)
		}
	}
}

func TestBalloonTickTracksDriverShare(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 16 << 20, BackingBytes: 64 << 20})
	if err := e.h.BalloonTick(e.th); err != nil {
		t.Fatal(err)
	}
	single := e.h.ActiveFrames()
	// A second enclave halves the PRM share; the balloon must deflate.
	e2, _ := e.plat.NewEnclave()
	defer e2.Destroy()
	if err := e.h.BalloonTick(e.th); err != nil {
		t.Fatal(err)
	}
	double := e.h.ActiveFrames()
	if double >= single {
		t.Fatalf("balloon did not deflate under PRM pressure: %d -> %d frames", single, double)
	}
}

func TestConcurrentHeapAccess(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 256 << 10, BackingBytes: 64 << 20})
	const workers = 4
	const span = 1 << 20
	ptrs := make([]*SPtr, workers)
	for i := range ptrs {
		var err error
		ptrs[i], err = e.h.Malloc(span)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := e.encl.NewThread()
			th.Enter()
			p := ptrs[w]
			rng := rand.New(rand.NewSource(int64(w)))
			stamp := bytes.Repeat([]byte{byte(w + 1)}, 512)
			got := make([]byte, 512)
			for i := 0; i < 500; i++ {
				off := uint64(rng.Intn(span - 512))
				if err := p.WriteAt(th, off, stamp); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					return
				}
				if err := p.ReadAt(th, off, got); err != nil {
					t.Errorf("worker %d read: %v", w, err)
					return
				}
				if !bytes.Equal(got, stamp) {
					t.Errorf("worker %d: readback mismatch at %d", w, off)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEvictionPolicies(t *testing.T) {
	for _, pol := range []EvictionPolicy{PolicyClock, PolicyFIFO, PolicyRandom} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallCfg()
			cfg.Policy = pol
			e := newEnv(t, cfg)
			p, _ := e.h.Malloc(1 << 20)
			want := make([]byte, 1<<20)
			rand.New(rand.NewSource(5)).Read(want)
			if err := p.WriteAt(e.th, 0, want); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if err := p.ReadAt(e.th, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("policy %v: readback mismatch", pol)
			}
			if e.h.Stats().Evictions == 0 {
				t.Fatalf("policy %v: no evictions", pol)
			}
		})
	}
}

func TestPageSizeVariants(t *testing.T) {
	for _, ps := range []int{512, 2048, 4096, 16384} {
		ps := ps
		t.Run(formatBytes(ps), func(t *testing.T) {
			cfg := Config{PageCacheBytes: 64 << 10, PageSize: ps, SubPageSize: min(ps, 512), BackingBytes: 64 << 20}
			e := newEnv(t, cfg)
			p, _ := e.h.Malloc(512 << 10)
			want := make([]byte, 512<<10)
			rand.New(rand.NewSource(int64(ps))).Read(want)
			if err := p.WriteAt(e.th, 0, want); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if err := p.ReadAt(e.th, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("readback mismatch")
			}
		})
	}
}

func formatBytes(n int) string {
	if n >= 1024 {
		return string(rune('0'+n/1024)) + "KiB"
	}
	return string(rune('0'+n)) + "B"
}

func TestMemcpyMemsetCompare(t *testing.T) {
	e := newEnv(t, smallCfg())
	a, _ := e.h.Malloc(64 << 10)
	b, _ := e.h.Malloc(64 << 10)
	want := make([]byte, 64<<10)
	rand.New(rand.NewSource(11)).Read(want)
	_ = a.WriteAt(e.th, 0, want)
	if err := Memcpy(e.th, b, 0, a, 0, 64<<10); err != nil {
		t.Fatal(err)
	}
	if c, err := b.CompareAt(e.th, 0, want); err != nil || c != 0 {
		t.Fatalf("CompareAt after Memcpy: c=%d err=%v", c, err)
	}
	if err := b.MemsetAt(e.th, 100, 1000, 0xEE); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	_ = b.ReadAt(e.th, 100, got)
	for i, x := range got {
		if x != 0xEE {
			t.Fatalf("memset byte %d = %#x", i, x)
		}
	}
	want[0] ^= 1
	if c, _ := a.CompareAt(e.th, 0, want); c == 0 {
		t.Fatal("CompareAt missed a difference")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
