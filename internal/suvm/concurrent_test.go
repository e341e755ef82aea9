package suvm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"eleos/internal/sgx"
)

// The fault-pipeline concurrency suite: many enclave threads faulting
// through the sharded pipeline while the swapper resizes and reclaims
// under them. Run with -race these tests are the memory-model gate for
// the pipeline's lock layering.

// TestConcurrentFaultStressWithSwapper drives 8 enclave threads over a
// combined working set 4x EPC++ (disjoint per-thread regions, so every
// layer of the pipeline runs in parallel) while a churn goroutine
// resizes EPC++ up and down and runs manual swapper ticks mid-flight.
// Each thread verifies its own data against a shadow copy, so a torn
// write-back, a page-in racing an eviction, or a resize corrupting the
// pool surfaces as a data mismatch, not just a race report.
func TestConcurrentFaultStressWithSwapper(t *testing.T) {
	const (
		threads   = 8
		frames    = 64 // 256 KiB EPC++
		pagesPer  = 32 // 128 KiB per thread -> 1 MiB total = 4x EPC++
		opsPer    = 600
		chunkSize = 64
	)
	e := newEnv(t, Config{PageCacheBytes: frames << 12, BackingBytes: 64 << 20})
	ptrs := make([]*SPtr, threads)
	for i := range ptrs {
		p, err := e.h.Malloc(pagesPer << 12)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}

	var done atomic.Bool
	var churn sync.WaitGroup
	churn.Add(1)
	sw := e.h.NewSwapper()
	go func() {
		defer churn.Done()
		th := e.encl.NewThread()
		th.Enter()
		defer th.Exit()
		for i := 0; !done.Load(); i++ {
			switch i % 4 {
			case 0:
				// Shrink may fail against transient pins; that path
				// (error + retry next round) is part of what we stress.
				_ = e.h.ResizeTo(th, (frames/2)<<12)
			case 2:
				_ = e.h.ResizeTo(th, frames<<12)
			default:
				sw.TickNow()
			}
		}
		_ = e.h.ResizeTo(th, frames<<12)
	}()

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th := e.encl.NewThread()
			th.Enter()
			defer th.Exit()
			p := ptrs[ti]
			rng := rand.New(rand.NewSource(int64(1000 + ti)))
			shadow := make([]byte, pagesPer<<12)
			buf := make([]byte, chunkSize)
			for op := 0; op < opsPer; op++ {
				off := uint64(rng.Intn(pagesPer<<12 - chunkSize))
				if rng.Intn(2) == 0 {
					v := byte(rng.Intn(256))
					for i := range buf {
						buf[i] = v
					}
					if err := p.WriteAt(th, off, buf); err != nil {
						errs <- err
						return
					}
					copy(shadow[off:], buf)
				} else {
					if err := p.ReadAt(th, off, buf); err != nil {
						errs <- err
						return
					}
					for i, b := range buf {
						if b != shadow[off+uint64(i)] {
							t.Errorf("thread %d: data mismatch at %d: got %d want %d",
								ti, off+uint64(i), b, shadow[off+uint64(i)])
							return
						}
					}
				}
			}
		}(ti)
	}
	wg.Wait()
	done.Store(true)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker error: %v", err)
	}
	checkFrames(t, e.h)
}

// TestSameFaultCoalesces runs 8 threads over one shared stream of pages
// (same seed everywhere) so major faults collide on the same page; the
// losers must wait on the winner's in-flight entry, coalesce onto its
// frame, and be charged queueing delay in virtual time.
func TestSameFaultCoalesces(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 256 << 10, BackingBytes: 64 << 20}) // 64 frames
	const pages = 128                                                         // 2x EPC++
	p, err := e.h.Malloc(pages << 12)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 4096)
	for pg := uint64(0); pg < pages; pg++ {
		if err := p.WriteAt(e.th, pg<<12, zero); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	threads := make([]*sgx.Thread, workers)
	for i := range threads {
		threads[i] = e.encl.NewThread()
		threads[i].Enter()
	}
	defer func() {
		for _, th := range threads {
			th.Exit()
		}
	}()
	// Round-by-round rendezvous: every round all workers fault the same
	// page, which was evicted ~64 rounds ago (2x overcommit), so the
	// first one in owns the page-in and the rest must coalesce.
	for round := 0; round < 300; round++ {
		off := uint64(round%pages) << 12
		var wg sync.WaitGroup
		for _, th := range threads {
			wg.Add(1)
			go func(th *sgx.Thread) {
				defer wg.Done()
				var b [8]byte
				if err := p.ReadAt(th, off, b[:]); err != nil {
					t.Error(err)
				}
			}(th)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		st := e.h.Stats()
		if st.FaultsCoalesced > 0 {
			if st.FaultWaitCycles == 0 {
				t.Fatal("faults coalesced but no wait cycles charged")
			}
			return
		}
	}
	t.Fatal("8 threads faulting the same cold page never coalesced a fault")
}

// TestManualSwapperTick checks that a TickNow visibly refills the free
// pool by pre-evicting pages.
func TestManualSwapperTick(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 1 << 20, BackingBytes: 64 << 20}) // 256 frames
	p, err := e.h.Malloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for off := uint64(0); off < p.Size(); off += 4096 {
		if err := p.WriteAt(e.th, off, buf); err != nil {
			t.Fatal(err)
		}
	}
	// The cache is full and the pool dry; a manual tick pre-evicts.
	e.h.ResetStats()
	sw := e.h.NewSwapper()
	sw.TickNow()
	st := e.h.Stats()
	if st.Evictions == 0 {
		t.Fatal("manual swapper tick reclaimed nothing from a full cache")
	}
}

// TestReleaseKeepsDirtyBitUnderEviction pins the lock-free release: a
// writer's release sets the frame's dirty bit before it drops the pin,
// so an eviction racing with it either sees the pin and backs off or
// sees the dirty bit and writes the page back. Writers store distinct
// values into shared pages through unlinked accesses while a churn
// thread shrinks and regrows EPC++ under them; a lost dirty bit drops a
// written page as clean, and a later read returns a stale value. The
// final shrink also fails on a frame that a duplicated page-in left
// holding a page the resident table no longer maps.
func TestReleaseKeepsDirtyBitUnderEviction(t *testing.T) {
	const (
		writers = 4
		pages   = 8
		rounds  = 2000
	)
	e := newEnv(t, Config{PageCacheBytes: 16 << 12, BackingBytes: 64 << 20})
	p, err := e.h.Malloc(pages << 12)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		th := e.encl.NewThread()
		th.Enter()
		defer th.Exit()
		for i := 0; !done.Load(); i++ {
			// A shrink may fail against a transient pin; the next
			// round retries.
			_ = e.h.ResizeTo(th, uint64(4+12*(i%2))<<12)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := e.encl.NewThread()
			th.Enter()
			defer th.Exit()
			q := p.Clone() // an SPtr is used by one thread at a time
			// Writer w owns the word at offset 8w of every page.
			for r := 1; r <= rounds; r++ {
				off := uint64(r%pages)<<12 + uint64(8*w)
				v := uint64(w)<<32 | uint64(r)
				if err := q.PutU64At(th, off, v); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if got, err := q.U64At(th, off); err != nil || got != v {
					t.Errorf("writer %d round %d: read %#x (%v), wrote %#x", w, r, got, err, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	churn.Wait()
	// Every page's last value per writer survives the final evictions.
	if err := e.h.ResizeTo(e.th, 4<<12); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for r := rounds - pages + 1; r <= rounds; r++ {
			off := uint64(r%pages)<<12 + uint64(8*w)
			if got, _ := p.U64At(e.th, off); got != uint64(w)<<32|uint64(r) {
				t.Fatalf("writer %d page %d: read %#x, want %#x", w, r%pages, got, uint64(w)<<32|uint64(r))
			}
		}
	}
}
