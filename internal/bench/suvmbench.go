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

// sgxPagingRun performs ops random 4K accesses over an enclave-heap
// buffer of bufSize on each of threads threads (disjoint key streams,
// shared buffer), returning max per-thread cycles.
func sgxPagingRun(v *env, bufSize uint64, ops, threads int, write bool) uint64 {
	base := v.encl.Alloc(bufSize)
	pages := int(bufSize / phys.PageSize)
	// Warm: materialize every page once, then run one measurement-shaped
	// pass so the paging system reaches steady state (otherwise the
	// measured window pays the write-backs of load-phase-dirty pages).
	buf := make([]byte, phys.PageSize)
	for pg := 0; pg < pages; pg++ {
		v.th.Write(base+uint64(pg)*phys.PageSize, buf)
	}
	warmRng := rand.New(rand.NewSource(99))
	for n := 0; n < ops; n++ {
		off := uint64(warmRng.Intn(pages)) * phys.PageSize
		if write {
			v.th.Write(base+off, buf)
		} else {
			v.th.Read(base+off, buf)
		}
	}
	resetCounters(v.plat, v.th, v.heap)

	ths := []*sgx.Thread{v.th}
	for i := 1; i < threads; i++ {
		t := v.encl.NewThread()
		t.Enter()
		ths = append(ths, t)
	}
	var wg sync.WaitGroup
	for i, th := range ths {
		wg.Add(1)
		go func(i int, th *sgx.Thread) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			b := make([]byte, phys.PageSize)
			for n := 0; n < ops/threads; n++ {
				off := uint64(rng.Intn(pages)) * phys.PageSize
				if write {
					th.Write(base+off, b)
				} else {
					th.Read(base+off, b)
				}
			}
		}(i, th)
	}
	wg.Wait()
	var max uint64
	for _, th := range ths {
		if c := th.T.Cycles(); c > max {
			max = c
		}
	}
	return max
}

// suvmPagingRun does the same over an array of per-page SUVM buffers
// (the paper's array-of-spointers workload).
func suvmPagingRun(v *env, bufSize uint64, ops, threads int, write bool) uint64 {
	pages := int(bufSize / phys.PageSize)
	ptrs := make([]*suvm.SPtr, pages)
	for i := range ptrs {
		p, err := v.heap.Malloc(phys.PageSize)
		if err != nil {
			panic(err)
		}
		ptrs[i] = p
	}
	buf := make([]byte, phys.PageSize)
	for _, p := range ptrs {
		if err := p.WriteAt(v.th, 0, buf); err != nil {
			panic(err)
		}
	}
	// Steady-state pass (see sgxPagingRun).
	warmRng := rand.New(rand.NewSource(99))
	for n := 0; n < ops; n++ {
		p := ptrs[warmRng.Intn(pages)]
		if write {
			_ = p.WriteAt(v.th, 0, buf)
		} else {
			_ = p.ReadAt(v.th, 0, buf)
		}
	}
	resetCounters(v.plat, v.th, v.heap)

	ths := []*sgx.Thread{v.th}
	for i := 1; i < threads; i++ {
		t := v.encl.NewThread()
		t.Enter()
		ths = append(ths, t)
	}
	var wg sync.WaitGroup
	for i, th := range ths {
		wg.Add(1)
		go func(i int, th *sgx.Thread) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			b := make([]byte, phys.PageSize)
			for n := 0; n < ops/threads; n++ {
				p := ptrs[rng.Intn(pages)]
				var err error
				if write {
					err = p.WriteAt(th, 0, b)
				} else {
					err = p.ReadAt(th, 0, b)
				}
				if err != nil {
					panic(err)
				}
			}
		}(i, th)
	}
	wg.Wait()
	var max uint64
	for _, th := range ths {
		if c := th.T.Cycles(); c > max {
			max = c
		}
	}
	return max
}

func fig7sizes(quick bool) []uint64 {
	if quick {
		return []uint64{60 << 20, 200 << 20, 512 << 20}
	}
	return []uint64{60 << 20, 200 << 20, 512 << 20, 1 << 30, 2 << 30}
}

func fig7(rc RunConfig, threads int) *report.Table {
	rc = rc.Normalize()
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
			sv := enclaveEnv(0)
			sgxCyc := sgxPagingRun(sv, size, ops, threads, write)
			sgxFaults := sv.plat.Driver.Stats().Faults

			uv := enclaveEnv(60 << 20)
			suvmCyc := suvmPagingRun(uv, size, ops, threads, write)
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
	rc = rc.Normalize()
	size := uint64(200 << 20)
	if rc.Quick {
		size = 200 << 20 // the table is about counts; keep the paper's size
	}
	t := report.New("Table 2: IPIs and page faults for 100k random 4K reads from 200MB",
		"threads", "IPIs sgx", "IPIs suvm", "faults sgx (hw)", "faults suvm (sw)", "speedup")
	t.Note = "paper 1T: 50.2k IPIs, 116k faults, 4.5x; 4T: 77.9k IPIs, 115k faults, 5.5x"
	for _, threads := range []int{1, 4} {
		ops := rc.Ops
		sv := enclaveEnv(0)
		sgxCyc := sgxPagingRun(sv, size, ops, threads, false)
		sgxStats := sv.plat.Driver.Stats()

		uv := enclaveEnv(60 << 20)
		suvmCyc := suvmPagingRun(uv, size, ops, threads, false)
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
	rc = rc.Normalize()
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
			b := make([]byte, elem)

			// Native sequential walk. One warm lap first: this is the
			// "data in cache" configuration.
			warmLap := func() {
				w := make([]byte, phys.PageSize)
				for off := uint64(0); off+phys.PageSize <= arrayBytes; off += phys.PageSize {
					nv.th.Read(native+off, w)
				}
			}
			warmLap()
			nv.th.T.Reset()
			off := uint64(0)
			for i := 0; i < ops; i++ {
				if off+uint64(elem) > arrayBytes {
					off = 0
				}
				if write {
					nv.th.Write(native+off, b)
				} else {
					nv.th.Read(native+off, b)
				}
				off += uint64(elem)
			}
			natCyc := nv.th.T.Cycles()

			// Spointer sequential walk (linked fast path + minor fault
			// per page crossing), warmed the same way.
			w := make([]byte, phys.PageSize)
			for off := uint64(0); off+phys.PageSize <= arrayBytes; off += phys.PageSize {
				if err := p.ReadAt(v.th, off, w); err != nil {
					panic(err)
				}
			}
			if err := p.Seek(v.th, 0); err != nil {
				panic(err)
			}
			v.th.T.Reset()
			for i := 0; i < ops; i++ {
				if p.Offset()+uint64(elem) > arrayBytes {
					if err := p.Seek(v.th, 0); err != nil {
						panic(err)
					}
				}
				var err error
				if write {
					err = p.Write(v.th, b)
				} else {
					err = p.Read(v.th, b)
				}
				if err != nil {
					panic(err)
				}
				if err := p.Advance(v.th, int64(elem)); err != nil {
					panic(err)
				}
			}
			spCyc := v.th.T.Cycles()

			t.AddRow(elem, mode, perOp(natCyc, ops), perOp(spCyc, ops),
				report.Ratio(float64(spCyc), float64(natCyc)))
		}
	}
	return t
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
	rc = rc.Normalize()
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
	rc = rc.Normalize()
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
	rc = rc.Normalize()
	t := report.New("Page-fault latency: SGX hardware vs SUVM software",
		"system", "workload", "cycles/fault")
	t.Note = "paper: SGX ~40k total; SUVM ~8.5k page-in (reads), ~14k evict+page-in (writes)"

	// SGX: sustained random 4K reads over 200MB.
	sv := enclaveEnv(0)
	size := uint64(200 << 20)
	ops := rc.Ops / 2
	sgxCyc := sgxPagingRun(sv, size, ops, 1, false)
	sgxF := sv.plat.Driver.Stats().Faults
	noFault := enclaveEnv(0)
	base := perOp(sgxPagingRun(noFault, 60<<20, ops, 1, false), ops)
	perFault := (float64(sgxCyc) - base*float64(ops)) / float64(sgxF)
	t.AddRow("sgx", "4K random reads, 200MB", perFault)

	// SUVM: steady-state fault handling cost from the heap's counters.
	for _, write := range []bool{false, true} {
		uv := enclaveEnv(4 << 20)
		p, err := uv.heap.Malloc(32 << 20)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, phys.PageSize)
		for off := uint64(0); off+phys.PageSize <= p.Size(); off += phys.PageSize {
			_ = p.WriteAt(uv.th, off, buf)
		}
		rng := rand.New(rand.NewSource(4))
		run := func() {
			for i := 0; i < ops; i++ {
				off := uint64(rng.Intn(int(p.Size()/phys.PageSize))) * phys.PageSize
				if write {
					_ = p.WriteAt(uv.th, off, buf)
				} else {
					_ = p.ReadAt(uv.th, off, buf)
				}
			}
		}
		run()
		uv.heap.ResetStats()
		run()
		st := uv.heap.Stats()
		mode := "page-in (reads)"
		if write {
			mode = "evict+page-in (writes)"
		}
		t.AddRow("suvm", mode, float64(st.FaultCycles)/float64(st.MajorFaults))
	}
	return &Result{ID: "pflat", Title: "Fault latency", Tables: []*report.Table{t}}, nil
}
