package bench

import (
	"math/rand"

	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/phys"
	"eleos/internal/report"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

func init() {
	register("abl-wb", "Ablation: clean-page write-back avoidance", ablWriteBack)
	register("abl-link", "Ablation: spointer link caching (one PT lookup per page)", ablLinkCache)
	register("abl-pgsz", "Ablation: EPC++ page size sweep", ablPageSize)
	register("abl-evict", "Ablation: EPC++ eviction policy", ablEviction)
}

// suvmScan runs a mixed read-mostly random workload over a working set
// far beyond EPC++ and returns cycles/op.
func suvmScan(cfg suvm.Config, bufBytes uint64, ops int, writeFrac int) float64 {
	v := enclaveEnv(0)
	h, err := suvm.New(v.encl, v.th, cfg)
	if err != nil {
		panic(err)
	}
	v.heap = h
	p, err := h.Malloc(bufBytes)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 4096)
	for off := uint64(0); off+4096 <= bufBytes; off += 4096 {
		if err := p.WriteAt(v.th, off, buf); err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(21))
	run := func() {
		for i := 0; i < ops; i++ {
			off := uint64(rng.Intn(int(bufBytes/4096))) * 4096
			if rng.Intn(100) < writeFrac {
				_ = p.WriteAt(v.th, off, buf)
			} else {
				_ = p.ReadAt(v.th, off, buf)
			}
		}
	}
	run() // steady state
	resetCounters(v.plat, v.th, v.heap)
	run()
	return perOp(v.th.T.Cycles(), ops)
}

// ablWriteBack: the §3.2.4 clean-page optimization. A read-mostly
// workload (10% writes) evicts mostly clean pages; skipping their
// write-back should approach the paper's up-to-1.7x claim.
func ablWriteBack(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	t := report.New("Ablation: write-back avoidance for clean pages",
		"write fraction", "always write back (cyc/op)", "skip clean (cyc/op)", "gain")
	t.Note = "paper claims up to 1.7x from this optimization"
	for _, wf := range []int{0, 10, 50, 100} {
		on := suvmScan(suvm.Config{PageCacheBytes: 16 << 20, BackingBytes: 1 << 30}, 128<<20, rc.Ops/2, wf)
		off := suvmScan(suvm.Config{PageCacheBytes: 16 << 20, BackingBytes: 1 << 30, WriteBackClean: true}, 128<<20, rc.Ops/2, wf)
		t.AddRow(wf, off, on, report.Ratio(off, on))
	}
	return &Result{ID: "abl-wb", Title: "Write-back avoidance", Tables: []*report.Table{t}}, nil
}

// ablLinkCache: the value of caching the translated frame in the
// spointer. A sequential in-page scan via a linked spointer pays one
// lookup per page; the same scan through ReadAt pays one per access.
func ablLinkCache(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	v := enclaveEnv(48 << 20)
	const size = 4 << 20 // LLC-resident: isolates translation costs
	p, err := v.heap.Malloc(size)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 4096)
	for off := uint64(0); off+4096 <= size; off += 4096 {
		_ = p.WriteAt(v.th, off, buf)
	}
	t := report.New("Ablation: spointer link caching",
		"access bytes", "linked walk (cyc/op)", "unlinked ReadAt (cyc/op)", "link gain")
	t.Note = "link caching amortizes the page-table lookup to one per page (§3.2.2)"
	warm := func() {
		w := make([]byte, 4096)
		for off := uint64(0); off+4096 <= size; off += 4096 {
			_ = p.ReadAt(v.th, off, w)
		}
	}
	for _, elem := range []int{16, 64, 256, 1024} {
		ops := rc.Ops
		b := make([]byte, elem)
		// Linked walk over a warm cache.
		warm()
		_ = p.Seek(v.th, 0)
		v.th.T.Reset()
		for i := 0; i < ops; i++ {
			if p.Offset()+uint64(elem) > size {
				_ = p.Seek(v.th, 0)
			}
			if err := p.Read(v.th, b); err != nil {
				panic(err)
			}
			_ = p.Advance(v.th, int64(elem))
		}
		linked := perOp(v.th.T.Cycles(), ops)
		// Unlinked positioned reads over the same sequence, same warmth.
		warm()
		v.th.T.Reset()
		off := uint64(0)
		for i := 0; i < ops; i++ {
			if off+uint64(elem) > size {
				off = 0
			}
			if err := p.ReadAt(v.th, off, b); err != nil {
				panic(err)
			}
			off += uint64(elem)
		}
		unlinked := perOp(v.th.T.Cycles(), ops)
		t.AddRow(elem, linked, unlinked, report.Ratio(unlinked, linked))
	}
	return &Result{ID: "abl-link", Title: "Link caching", Tables: []*report.Table{t}}, nil
}

// ablPageSize: the compile-time EPC++ page size knob (§3.4). Small
// pages waste fault work on metadata; large pages waste bandwidth on
// unused bytes when accesses are small.
func ablPageSize(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	t := report.New("Ablation: EPC++ page size (random 512B accesses over 128MB, EPC++ 16MB)",
		"page size", "cyc/op", "major faults / 1k ops")
	t.Note = "larger pages amortize crypto but page in unused bytes (§3.4)"
	for _, ps := range []int{512, 1024, 4096, 16384} {
		v := enclaveEnv(0)
		h, err := suvm.New(v.encl, v.th, suvm.Config{
			PageCacheBytes: 16 << 20, PageSize: ps, SubPageSize: minInt(ps, 512), BackingBytes: 1 << 30,
		})
		if err != nil {
			panic(err)
		}
		v.heap = h
		const size = 128 << 20
		p, err := h.Malloc(size)
		if err != nil {
			panic(err)
		}
		chunk := make([]byte, 64<<10)
		for off := uint64(0); off+uint64(len(chunk)) <= size; off += uint64(len(chunk)) {
			_ = p.WriteAt(v.th, off, chunk)
		}
		ops := rc.Ops / 2
		b := make([]byte, 512)
		rng := rand.New(rand.NewSource(31))
		run := func() {
			for i := 0; i < ops; i++ {
				off := uint64(rng.Intn(size/512)) * 512
				if err := p.ReadAt(v.th, off, b); err != nil {
					panic(err)
				}
			}
		}
		run()
		resetCounters(v.plat, v.th, v.heap)
		run()
		st := h.Stats()
		t.AddRow(report.Bytes(uint64(ps)), perOp(v.th.T.Cycles(), ops),
			float64(st.MajorFaults)*1000/float64(ops))
	}
	return &Result{ID: "abl-pgsz", Title: "Page size sweep", Tables: []*report.Table{t}}, nil
}

// ablEviction: clock vs FIFO vs random victim selection under a skewed
// (Zipf-ish hot/cold) access pattern, where recency tracking pays off.
func ablEviction(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	t := report.New("Ablation: eviction policy under a skewed access pattern",
		"policy", "cyc/op", "major faults / 1k ops", "clean drops")
	t.Note = "clock's reference bits protect the hot set; FIFO and random evict it blindly"
	const size = 64 << 20
	const hotFrac = 8 // 1/8 of pages (8MB, half of EPC++) get 80% of accesses
	for _, pol := range []suvm.EvictionPolicy{suvm.PolicyClock, suvm.PolicyFIFO, suvm.PolicyRandom} {
		v := enclaveEnv(0)
		h, err := suvm.New(v.encl, v.th, suvm.Config{
			PageCacheBytes: 16 << 20, BackingBytes: 1 << 30, Policy: pol,
		})
		if err != nil {
			panic(err)
		}
		v.heap = h
		p, err := h.Malloc(size)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 4096)
		for off := uint64(0); off+4096 <= size; off += 4096 {
			_ = p.WriteAt(v.th, off, buf)
		}
		pages := size / phys.PageSize
		rng := rand.New(rand.NewSource(41))
		ops := rc.Ops * 2 // the hot set needs several passes to stabilize
		run := func() {
			for i := 0; i < ops; i++ {
				var pg int
				if rng.Intn(100) < 80 {
					pg = rng.Intn(pages / hotFrac)
				} else {
					pg = rng.Intn(pages)
				}
				if err := p.ReadAt(v.th, uint64(pg)*phys.PageSize, buf); err != nil {
					panic(err)
				}
			}
		}
		run()
		resetCounters(v.plat, v.th, v.heap)
		run()
		st := h.Stats()
		t.AddRow(pol.String(), perOp(v.th.T.Cycles(), ops),
			float64(st.MajorFaults)*1000/float64(ops), st.CleanDrops)
	}
	return &Result{ID: "abl-evict", Title: "Eviction policy", Tables: []*report.Table{t}}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func init() {
	register("abl-batch", "Ablation: SCONE-style syscall batching vs exit-less RPC", ablBatch)
}

// ablBatch contrasts the two known ways to cut exit costs: batching
// system calls so one exit amortizes over N of them (SCONE's approach,
// §7) versus eliminating the exit entirely (Eleos RPC). The workload
// interleaves syscalls with pointer-chasing enclave work, so batching's
// remaining per-batch TLB flush still costs, while RPC keeps the TLB
// warm at any batch size.
func ablBatch(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	t := report.New("Ablation: batched OCALLs (SCONE-style) vs exit-less RPC (cycles/syscall)",
		"batch", "naive ocall", "batched ocall", "eleos rpc", "rpc vs batched")
	t.Note = "batching amortizes direct exit costs; only exit-less also keeps the TLB"

	ops := rc.Ops
	const workBytes = 2 << 20
	for _, batch := range []int{1, 4, 16, 64} {
		var results [3]float64
		for mode := 0; mode < 3; mode++ { // 0 naive, 1 batched, 2 rpc
			v := enclaveEnv(0)
			if mode == 2 {
				v.withPool(2)
			}
			// Pointer-chasing working set: one chained table walk per
			// syscall keeps the TLB relevant.
			mem := kvEnclaveTable(v)
			gen := loadgen.NewKeyGen(3, 64<<10)
			syscalls := 0
			v.th.T.Reset()
			for syscalls < ops {
				switch mode {
				case 0:
					for i := 0; i < batch; i++ {
						v.th.OCall(func(h *sgx.HostCtx) { h.Syscall(nil) })
						syscalls++
						_, _ = mem.Get(v.th, gen.Next())
					}
				case 1:
					v.th.OCall(func(h *sgx.HostCtx) {
						for i := 0; i < batch; i++ {
							h.Syscall(nil)
						}
					})
					syscalls += batch
					for i := 0; i < batch; i++ {
						_, _ = mem.Get(v.th, gen.Next())
					}
				case 2:
					for i := 0; i < batch; i++ {
						v.pool.Call(v.th, func(h *sgx.HostCtx) { h.Syscall(nil) })
						syscalls++
						_, _ = mem.Get(v.th, gen.Next())
					}
				}
			}
			results[mode] = perOp(v.th.T.Cycles(), syscalls)
			v.close()
		}
		t.AddRow(batch, results[0], results[1], results[2],
			report.Ratio(results[1], results[2]))
	}
	return &Result{ID: "abl-batch", Title: "Syscall batching vs exit-less", Tables: []*report.Table{t}}, nil
}

// kvEnclaveTable builds a small chained hash table in the enclave heap,
// loaded with 64k entries.
func kvEnclaveTable(v *env) *kv.FixedTable {
	const entries = 64 << 10
	buckets := uint64(2 * entries)
	mem := kv.EnclaveRegion(v.encl, kv.FixedTableMemSize(kv.Chaining, buckets, entries))
	img, err := kv.BuildFixedImage(kv.Chaining, buckets, entries)
	if err != nil {
		panic(err)
	}
	for off := 0; off < len(img); off += 1 << 20 {
		end := off + 1<<20
		if end > len(img) {
			end = len(img)
		}
		if err := mem.Write(v.th, uint64(off), img[off:end]); err != nil {
			panic(err)
		}
	}
	tab, err := kv.NewFixedTable(mem, kv.Chaining, buckets, entries)
	if err != nil {
		panic(err)
	}
	tab.SetLoaded(entries)
	return tab
}
