package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"eleos/internal/phys"
	"eleos/internal/report"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

func init() {
	register("fig7a", "SUVM speedup over native SGX paging: 4K random accesses, 1 thread", fig7a)
	register("fig7b", "SUVM speedup over native SGX paging: 4K random accesses, 4 threads", fig7b)
	register("tab2", "IPIs and page faults: SGX vs SUVM, 1 vs 4 threads", tab2)
	register("fig8a", "Spointer overhead on fault-free accesses, data in LLC (2MB)", fig8a)
	register("fig8b", "Spointer overhead on fault-free accesses, data in PRM (60MB)", fig8b)
	register("tab3", "Sub-page direct access vs EPC++ page cache", tab3)
	register("fig9", "EPC++ ballooning: two enclaves, correct vs misconfigured sizes", fig9)
	register("pflat", "Software vs hardware page-fault latency", pflat)
}

// pageAccess reads or writes page pg of a paging workload's buffer on
// th through b, one page long.
type pageAccess func(th *sgx.Thread, pg int, write bool, b []byte) error

// enclavePages allocates a pages-page buffer on v's enclave heap, paged
// by SGX hardware.
func enclavePages(v *env, pages int) pageAccess {
	base := v.encl.Alloc(uint64(pages) * phys.PageSize)
	return func(th *sgx.Thread, pg int, write bool, b []byte) error {
		if write {
			th.Write(base+uint64(pg)*phys.PageSize, b)
		} else {
			th.Read(base+uint64(pg)*phys.PageSize, b)
		}
		return nil
	}
}

// suvmPages allocates one SUVM buffer per page on v's heap (the paper's
// array-of-spointers workload).
func suvmPages(v *env, pages int) pageAccess {
	ptrs := make([]*suvm.SPtr, pages)
	for i := range ptrs {
		p, err := v.heap.Malloc(phys.PageSize)
		if err != nil {
			panic(err)
		}
		ptrs[i] = p
	}
	return func(th *sgx.Thread, pg int, write bool, b []byte) error {
		if write {
			return ptrs[pg].WriteAt(th, 0, b)
		}
		return ptrs[pg].ReadAt(th, 0, b)
	}
}

// pagingRun writes every one of pages pages once through access, then
// runs one measurement-shaped pass of ops random accesses so the paging
// system reaches steady state (otherwise the measured window pays the
// write-backs of load-phase-dirty pages), resets the counters, and
// performs ops random accesses split over threads threads (disjoint key
// streams, shared buffer). It returns the largest thread clock.
func pagingRun(v *env, pages, ops, threads int, write bool, access pageAccess) uint64 {
	buf := make([]byte, phys.PageSize)
	for pg := 0; pg < pages; pg++ {
		must(access(v.th, pg, true, buf))
	}
	warmRng := rand.New(rand.NewSource(99))
	for n := 0; n < ops; n++ {
		must(access(v.th, warmRng.Intn(pages), write, buf))
	}
	resetCounters(v.plat, v.th, v.heap)
	last, err := runThreads(v.threads(nil, threads), func(i int, th *sgx.Thread) error {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		b := make([]byte, phys.PageSize)
		for n := 0; n < ops/threads; n++ {
			if err := access(th, rng.Intn(pages), write, b); err != nil {
				return err
			}
		}
		return nil
	})
	must(err)
	return last
}

func fig7sizes(quick bool) []uint64 {
	if quick {
		return []uint64{60 << 20, 200 << 20, 512 << 20}
	}
	return []uint64{60 << 20, 200 << 20, 512 << 20, 1 << 30, 2 << 30}
}

func fig7(rc RunConfig, threads int) *report.Table {
	t := report.New(fmt.Sprintf("Fig 7%s: SUVM speedup over SGX paging (%d thread(s), EPC++ 60MB)",
		map[int]string{1: "a", 4: "b"}[threads], threads),
		"buffer", "mode", "sgx cyc/op", "suvm cyc/op", "speedup", "hw faults sgx", "hw faults suvm")
	t.Note = "paper: ~5.5x reads / ~3x writes beyond EPC (1T); higher with 4T (no IPIs)"
	for _, size := range fig7sizes(rc.Quick) {
		ops := rc.Ops
		for _, write := range []bool{false, true} {
			mode := "read"
			if write {
				mode = "write"
			}
			pages := int(size / phys.PageSize)
			sv := enclaveEnv(0)
			sgxCyc := pagingRun(sv, pages, ops, threads, write, enclavePages(sv, pages))
			sgxFaults := sv.plat.Driver.Stats().Faults

			uv := enclaveEnv(60 << 20)
			suvmCyc := pagingRun(uv, pages, ops, threads, write, suvmPages(uv, pages))
			suvmHW := uv.plat.Driver.Stats().Faults

			t.AddRow(report.Bytes(size), mode,
				perOp(sgxCyc, ops), perOp(suvmCyc, ops),
				report.Ratio(float64(sgxCyc), float64(suvmCyc)),
				sgxFaults, suvmHW)
		}
	}
	return t
}

func fig7a(rc RunConfig) (*Result, error) {
	return &Result{ID: "fig7a", Title: "SUVM speedup, 1 thread", Tables: []*report.Table{fig7(rc, 1)}}, nil
}

func fig7b(rc RunConfig) (*Result, error) {
	return &Result{ID: "fig7b", Title: "SUVM speedup, 4 threads", Tables: []*report.Table{fig7(rc, 4)}}, nil
}

// tab2: IPI and fault counts for the 200MB random-read workload.
func tab2(rc RunConfig) (*Result, error) {
	const pages = (200 << 20) / phys.PageSize // the paper's size at any scale: the table is about counts
	t := report.New("Table 2: IPIs and page faults for 100k random 4K reads from 200MB",
		"threads", "IPIs sgx", "IPIs suvm", "faults sgx (hw)", "faults suvm (sw)", "speedup")
	t.Note = "paper 1T: 50.2k IPIs, 116k faults, 4.5x; 4T: 77.9k IPIs, 115k faults, 5.5x"
	for _, threads := range []int{1, 4} {
		ops := rc.Ops
		sv := enclaveEnv(0)
		sgxCyc := pagingRun(sv, pages, ops, threads, false, enclavePages(sv, pages))
		sgxStats := sv.plat.Driver.Stats()

		uv := enclaveEnv(60 << 20)
		suvmCyc := pagingRun(uv, pages, ops, threads, false, suvmPages(uv, pages))
		suvmIPIs := uv.plat.Driver.Stats().IPIs
		suvmSW := uv.heap.Stats().MajorFaults

		t.AddRow(threads, sgxStats.IPIs, suvmIPIs, sgxStats.Faults, suvmSW,
			report.Ratio(float64(sgxCyc), float64(suvmCyc)))
	}
	return &Result{ID: "tab2", Title: "IPI elimination", Tables: []*report.Table{t}}, nil
}

// fig8run walks an array sequentially with the given element size, via
// a linked spointer and via a raw enclave pointer, and reports the
// slowdown. The two configurations run in separate enclaves (as two
// separate experiment runs would): the 60MB variant plus a 60MB+ EPC++
// pool cannot both be PRM-resident at once, and the measurement is
// specifically fault-free. The SUVM array is pre-faulted into EPC++, so
// the only SUVM costs are link checks and per-page-crossing minor
// faults.
func fig8run(rc RunConfig, arrayBytes uint64, title, note string) *report.Table {
	t := report.New(title, "access bytes", "mode", "native cyc/op", "spointer cyc/op", "slowdown")
	t.Note = note

	v := enclaveEnv(arrayBytes + (4 << 20))
	p, err := v.heap.Malloc(arrayBytes)
	if err != nil {
		panic(err)
	}
	nv := enclaveEnv(0)
	native := nv.encl.Alloc(arrayBytes)
	buf := make([]byte, phys.PageSize)
	// Prefetch both into their caches.
	for off := uint64(0); off+phys.PageSize <= arrayBytes; off += phys.PageSize {
		if err := p.WriteAt(v.th, off, buf); err != nil {
			panic(err)
		}
		nv.th.Write(native+off, buf)
	}

	for _, elem := range []int{16, 64, 256, 1024, 4096} {
		for _, write := range []bool{false, true} {
			mode := "read"
			if write {
				mode = "write"
			}
			ops := rc.Ops
			natCyc := seqWalk(nv.th, arrayBytes, elem, ops,
				func(off uint64, w []byte) { nv.th.Read(native+off, w) }, nil,
				func(off uint64, b []byte) {
					if write {
						nv.th.Write(native+off, b)
					} else {
						nv.th.Read(native+off, b)
					}
				})
			spCyc := linkedWalk(v.th, p, arrayBytes, elem, ops, write)
			t.AddRow(elem, mode, perOp(natCyc, ops), perOp(spCyc, ops),
				report.Ratio(float64(spCyc), float64(natCyc)))
		}
	}
	return t
}

// seqWalk times a sequential walk over a size-byte region on th. One
// warm lap reads every page through lap (the "data in cache"
// configuration); then rewind runs, when given, and th's clock is
// reset. step then makes ops elem-byte accesses at rising offsets,
// wrapping to the start before one that would run past size. It
// returns th's cycles for the walk.
func seqWalk(th *sgx.Thread, size uint64, elem, ops int, lap func(off uint64, w []byte), rewind func(), step func(off uint64, b []byte)) uint64 {
	w := make([]byte, phys.PageSize)
	for off := uint64(0); off+phys.PageSize <= size; off += phys.PageSize {
		lap(off, w)
	}
	if rewind != nil {
		rewind()
	}
	th.T.Reset()
	b := make([]byte, elem)
	off := uint64(0)
	for i := 0; i < ops; i++ {
		if off+uint64(elem) > size {
			off = 0
		}
		step(off, b)
		off += uint64(elem)
	}
	return th.T.Cycles()
}

// linkedWalk is seqWalk through p's own cursor: the linked fast path,
// with a minor fault per page crossing.
func linkedWalk(th *sgx.Thread, p *suvm.SPtr, size uint64, elem, ops int, write bool) uint64 {
	return seqWalk(th, size, elem, ops,
		func(off uint64, w []byte) { must(p.ReadAt(th, off, w)) },
		func() { must(p.Seek(th, 0)) },
		func(off uint64, b []byte) {
			if p.Offset() != off { // the walk wrapped
				must(p.Seek(th, off))
			}
			if write {
				must(p.Write(th, b))
			} else {
				must(p.Read(th, b))
			}
			must(p.Advance(th, int64(len(b))))
		})
}

func fig8a(rc RunConfig) (*Result, error) {
	t := fig8run(rc, 2<<20,
		"Fig 8a: spointer slowdown for fault-free accesses, data in LLC (2MB)",
		"paper: up to 22% reads / 25% writes")
	return &Result{ID: "fig8a", Title: "Spointer overhead (LLC)", Tables: []*report.Table{t}}, nil
}

func fig8b(rc RunConfig) (*Result, error) {
	t := fig8run(rc, 60<<20,
		"Fig 8b: spointer slowdown for fault-free accesses, data in PRM (60MB)",
		"paper: below 20%")
	return &Result{ID: "fig8b", Title: "Spointer overhead (PRM)", Tables: []*report.Table{t}}, nil
}

// tab3: random reads at sub-page granularity: direct backing-store
// access vs EPC++ caching, on a working set far beyond EPC++.
func tab3(rc RunConfig) (*Result, error) {
	size := uint64(256 << 20)
	if rc.Quick {
		size = 128 << 20
	}
	t := report.New("Table 3: direct 1KB-sub-page access vs EPC++ (4KB pages), random reads",
		"bytes/access", "epc++ cyc/op", "direct cyc/op", "direct speedup")
	t.Note = "paper: +58% at 16B, +41% at 256B, -3% at 2KB, -17% at 4KB"

	v := enclaveEnv(60 << 20)
	cached, err := v.heap.Malloc(size)
	if err != nil {
		panic(err)
	}
	direct, err := v.heap.MallocDirect(size)
	if err != nil {
		panic(err)
	}
	// Populate both.
	chunk := make([]byte, 64<<10)
	for off := uint64(0); off+uint64(len(chunk)) <= size; off += uint64(len(chunk)) {
		if err := cached.WriteAt(v.th, off, chunk); err != nil {
			panic(err)
		}
		if err := direct.WriteAt(v.th, off, chunk); err != nil {
			panic(err)
		}
	}

	for _, n := range []int{16, 256, 2048, 4096} {
		ops := rc.Ops / 2
		b := make([]byte, n)
		measure := func(p *suvm.SPtr) uint64 {
			rng := rand.New(rand.NewSource(int64(5000 + n)))
			v.th.T.Reset()
			for i := 0; i < ops; i++ {
				off := uint64(rng.Intn(int(size)/4096))*4096 + uint64(rng.Intn(4096-n+1))&^15
				if err := p.ReadAt(v.th, off, b); err != nil {
					panic(err)
				}
			}
			return v.th.T.Cycles()
		}
		epcCyc := measure(cached)
		dirCyc := measure(direct)
		t.AddRow(n, perOp(epcCyc, ops), perOp(dirCyc, ops),
			report.Ratio(float64(epcCyc), float64(dirCyc)))
	}
	return &Result{ID: "tab3", Title: "Sub-page direct access", Tables: []*report.Table{t}}, nil
}

// fig9: two enclaves each doing 4K random reads concurrently over
// arrays that exceed the per-enclave PRM share. Four configurations:
// native SGX paging; SUVM with EPC++ sized for the two-enclave share
// (30MB, "correct"); SUVM with an oversubscribed static EPC++ (50MB,
// "wrong") whose pinned frames the driver evicts — thrashing both
// paging systems at once; and the same wrong size rescued by the Eleos
// balloon, which queries the driver and deflates EPC++ to fit.
func fig9(rc RunConfig) (*Result, error) {
	t := report.New("Fig 9: two concurrent enclaves, throughput of 4K random reads",
		"array/enclave", "config", "ops/s total", "vs correct EPC++", "hw faults", "sw faults")
	t.Note = "paper: wrong 50MB EPC++ up to 3.4x slower than correct 30MB"

	type cfg struct {
		name    string
		epcpp   uint64 // 0 = native SGX
		balloon bool
	}
	cfgs := []cfg{
		{"sgx", 0, false},
		{"suvm-30MB (correct)", 30 << 20, false},
		{"suvm-50MB (wrong)", 50 << 20, false},
		{"suvm-50MB + balloon", 50 << 20, true},
	}
	for _, arr := range []uint64{45 << 20, 60 << 20, 90 << 20} {
		ops := rc.Ops / 2
		baseline := 0.0
		rows := make([][]any, 0, len(cfgs))
		for _, c := range cfgs {
			plat := newPlatform()
			var wg sync.WaitGroup
			var loaded sync.WaitGroup // both enclaves warm before either measures
			loaded.Add(2)
			maxCycles := make([]uint64, 2)
			swF := uint64(0)
			var mu sync.Mutex
			for e := 0; e < 2; e++ {
				wg.Add(1)
				go func(e int) {
					defer wg.Done()
					encl, err := plat.NewEnclave()
					if err != nil {
						panic(err)
					}
					th := encl.NewThread()
					th.Enter()
					var heap *suvm.Heap
					var p *suvm.SPtr
					var base uint64
					pages := int(arr / phys.PageSize)
					buf := make([]byte, phys.PageSize)
					if c.epcpp > 0 {
						heap, err = suvm.New(encl, th, suvm.Config{PageCacheBytes: c.epcpp, BackingBytes: 1 << 30})
						if err != nil {
							panic(err)
						}
						if c.balloon {
							// The swapper's periodic query of the
							// driver share, run once both enclaves
							// exist (both goroutines have created
							// theirs by the time loading finishes; one
							// more tick below corrects any race).
							_ = heap.BalloonTick(th)
						}
						p, err = heap.Malloc(arr)
						if err != nil {
							panic(err)
						}
						for pg := 0; pg < pages; pg++ {
							_ = p.WriteAt(th, uint64(pg)*phys.PageSize, buf)
						}
						if c.balloon {
							_ = heap.BalloonTick(th)
						}
					} else {
						base = encl.Alloc(arr)
						for pg := 0; pg < pages; pg++ {
							th.Write(base+uint64(pg)*phys.PageSize, buf)
						}
					}
					loaded.Done()
					loaded.Wait()
					if e == 0 {
						plat.Driver.ResetStats()
					}
					th.T.Reset()
					if heap != nil {
						heap.ResetStats()
					}
					rng := rand.New(rand.NewSource(int64(e)))
					for i := 0; i < ops; i++ {
						off := uint64(rng.Intn(pages)) * phys.PageSize
						if p != nil {
							_ = p.ReadAt(th, off, buf)
						} else {
							th.Read(base+off, buf)
						}
					}
					mu.Lock()
					maxCycles[e] = th.T.Cycles()
					if heap != nil {
						swF += heap.Stats().MajorFaults
					}
					mu.Unlock()
				}(e)
			}
			wg.Wait()
			hwF := plat.Driver.Stats().Faults
			max := maxCycles[0]
			if maxCycles[1] > max {
				max = maxCycles[1]
			}
			tput := float64(2*ops) / plat.Model.Seconds(max)
			if c.name == "suvm-30MB (correct)" {
				baseline = tput
			}
			rows = append(rows, []any{report.Bytes(arr), c.name, tput, hwF, swF})
		}
		for _, r := range rows {
			rel := "1.00x"
			if baseline > 0 {
				rel = report.Ratio(r[2].(float64), baseline)
			}
			t.AddRow(r[0], r[1], r[2], rel, r[3], r[4])
		}
	}
	return &Result{ID: "fig9", Title: "EPC++ ballooning", Tables: []*report.Table{t}}, nil
}

// pflat: per-fault latencies, directly comparable to §2.3 and §6.1.2.
func pflat(rc RunConfig) (*Result, error) {
	t := report.New("Page-fault latency: SGX hardware vs SUVM software",
		"system", "workload", "cycles/fault")
	t.Note = "paper: SGX ~40k total; SUVM ~8.5k page-in (reads), ~14k evict+page-in (writes)"

	// SGX: sustained random 4K reads over 200MB.
	const pages, noFaultPages = (200 << 20) / phys.PageSize, (60 << 20) / phys.PageSize
	ops := rc.Ops / 2
	sv := enclaveEnv(0)
	sgxCyc := pagingRun(sv, pages, ops, 1, false, enclavePages(sv, pages))
	sgxF := sv.plat.Driver.Stats().Faults
	noFault := enclaveEnv(0)
	base := perOp(pagingRun(noFault, noFaultPages, ops, 1, false, enclavePages(noFault, noFaultPages)), ops)
	perFault := (float64(sgxCyc) - base*float64(ops)) / float64(sgxF)
	t.AddRow("sgx", "4K random reads, 200MB", perFault)

	// SUVM: steady-state fault handling cost from the heap's counters.
	for _, write := range []bool{false, true} {
		const size = 32 << 20
		rng := rand.New(rand.NewSource(4))
		buf := make([]byte, phys.PageSize)
		_, st := steadyState(suvm.Config{PageCacheBytes: 4 << 20, BackingBytes: 8 << 30}, size, phys.PageSize,
			func(th *sgx.Thread, p *suvm.SPtr) {
				for i := 0; i < ops; i++ {
					off := uint64(rng.Intn(size/phys.PageSize)) * phys.PageSize
					if write {
						must(p.WriteAt(th, off, buf))
					} else {
						must(p.ReadAt(th, off, buf))
					}
				}
			})
		mode := "page-in (reads)"
		if write {
			mode = "evict+page-in (writes)"
		}
		t.AddRow("suvm", mode, float64(st.FaultCycles)/float64(st.MajorFaults))
	}
	return &Result{ID: "pflat", Title: "Fault latency", Tables: []*report.Table{t}}, nil
}
