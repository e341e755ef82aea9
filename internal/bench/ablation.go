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

// steadyState builds an SUVM heap from cfg in a fresh enclave, writes a
// size-byte buffer in chunk-byte pieces, runs pass once so paging
// reaches steady state, resets the counters, and runs pass again. It
// returns the measured pass's cycles and the heap's stats for it.
func steadyState(cfg suvm.Config, size uint64, chunk int, pass func(th *sgx.Thread, p *suvm.SPtr)) (uint64, suvm.StatsSnapshot) {
	v := enclaveEnv(0)
	h, err := suvm.New(v.encl, v.th, cfg)
	must(err)
	v.heap = h
	p, err := h.Malloc(size)
	must(err)
	fill(v.th, p, size, chunk)
	pass(v.th, p)
	resetCounters(v.plat, v.th, h)
	pass(v.th, p)
	return v.th.T.Cycles(), h.Stats()
}

// fill writes p's first size bytes on th in chunk-byte pieces.
func fill(th *sgx.Thread, p *suvm.SPtr, size uint64, chunk int) {
	buf := make([]byte, chunk)
	for off := uint64(0); off+uint64(chunk) <= size; off += uint64(chunk) {
		must(p.WriteAt(th, off, buf))
	}
}

// suvmScan runs a mixed read-mostly random workload over a working set
// far beyond EPC++ and returns cycles/op.
func suvmScan(cfg suvm.Config, bufBytes uint64, ops int, writeFrac int) float64 {
	rng := rand.New(rand.NewSource(21))
	buf := make([]byte, 4096)
	cyc, _ := steadyState(cfg, bufBytes, 4096, func(th *sgx.Thread, p *suvm.SPtr) {
		for i := 0; i < ops; i++ {
			off := uint64(rng.Intn(int(bufBytes/4096))) * 4096
			if rng.Intn(100) < writeFrac {
				must(p.WriteAt(th, off, buf))
			} else {
				must(p.ReadAt(th, off, buf))
			}
		}
	})
	return perOp(cyc, ops)
}

// ablWriteBack: the §3.2.4 clean-page optimization. A read-mostly
// workload (10% writes) evicts mostly clean pages; skipping their
// write-back should approach the paper's up-to-1.7x claim.
func ablWriteBack(rc RunConfig) (*Result, error) {
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
	v := enclaveEnv(48 << 20)
	const size = 4 << 20 // LLC-resident: isolates translation costs
	p, err := v.heap.Malloc(size)
	if err != nil {
		panic(err)
	}
	fill(v.th, p, size, 4096)
	t := report.New("Ablation: spointer link caching",
		"access bytes", "linked walk (cyc/op)", "unlinked ReadAt (cyc/op)", "link gain")
	t.Note = "link caching amortizes the page-table lookup to one per page (§3.2.2)"
	for _, elem := range []int{16, 64, 256, 1024} {
		ops := rc.Ops
		linked := perOp(linkedWalk(v.th, p, size, elem, ops, false), ops)
		// Unlinked positioned reads over the same sequence, same warmth.
		readAt := func(off uint64, b []byte) { must(p.ReadAt(v.th, off, b)) }
		unlinked := perOp(seqWalk(v.th, size, elem, ops, readAt, nil, readAt), ops)
		t.AddRow(elem, linked, unlinked, report.Ratio(unlinked, linked))
	}
	return &Result{ID: "abl-link", Title: "Link caching", Tables: []*report.Table{t}}, nil
}

// ablPageSize: the compile-time EPC++ page size knob (§3.4). Small
// pages waste fault work on metadata; large pages waste bandwidth on
// unused bytes when accesses are small.
func ablPageSize(rc RunConfig) (*Result, error) {
	t := report.New("Ablation: EPC++ page size (random 512B accesses over 128MB, EPC++ 16MB)",
		"page size", "cyc/op", "major faults / 1k ops")
	t.Note = "larger pages amortize crypto but page in unused bytes (§3.4)"
	for _, ps := range []int{512, 1024, 4096, 16384} {
		const size = 128 << 20
		ops := rc.Ops / 2
		b := make([]byte, 512)
		rng := rand.New(rand.NewSource(31))
		cyc, st := steadyState(suvm.Config{
			PageCacheBytes: 16 << 20, PageSize: ps, SubPageSize: min(ps, 512), BackingBytes: 1 << 30,
		}, size, 64<<10, func(th *sgx.Thread, p *suvm.SPtr) {
			for i := 0; i < ops; i++ {
				must(p.ReadAt(th, uint64(rng.Intn(size/512))*512, b))
			}
		})
		t.AddRow(report.Bytes(uint64(ps)), perOp(cyc, ops),
			float64(st.MajorFaults)*1000/float64(ops))
	}
	return &Result{ID: "abl-pgsz", Title: "Page size sweep", Tables: []*report.Table{t}}, nil
}

// ablEviction: clock vs FIFO vs random victim selection under a skewed
// (Zipf-ish hot/cold) access pattern, where recency tracking pays off.
func ablEviction(rc RunConfig) (*Result, error) {
	t := report.New("Ablation: eviction policy under a skewed access pattern",
		"policy", "cyc/op", "major faults / 1k ops", "clean drops")
	t.Note = "clock's reference bits protect the hot set; FIFO and random evict it blindly"
	const size = 64 << 20
	const hotFrac = 8 // 1/8 of pages (8MB, half of EPC++) get 80% of accesses
	for _, pol := range []suvm.EvictionPolicy{suvm.PolicyClock, suvm.PolicyFIFO, suvm.PolicyRandom} {
		const pages = size / phys.PageSize
		buf := make([]byte, 4096)
		rng := rand.New(rand.NewSource(41))
		ops := rc.Ops * 2 // the hot set needs several passes to stabilize
		cyc, st := steadyState(suvm.Config{
			PageCacheBytes: 16 << 20, BackingBytes: 1 << 30, Policy: pol,
		}, size, 4096, func(th *sgx.Thread, p *suvm.SPtr) {
			for i := 0; i < ops; i++ {
				var pg int
				if rng.Intn(100) < 80 {
					pg = rng.Intn(pages / hotFrac)
				} else {
					pg = rng.Intn(pages)
				}
				must(p.ReadAt(th, uint64(pg)*phys.PageSize, buf))
			}
		})
		t.AddRow(pol.String(), perOp(cyc, ops),
			float64(st.MajorFaults)*1000/float64(ops), st.CleanDrops)
	}
	return &Result{ID: "abl-evict", Title: "Eviction policy", Tables: []*report.Table{t}}, nil
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
	tab, err := kv.NewFixedTable(mem, kv.Chaining, buckets, entries)
	if err != nil {
		panic(err)
	}
	if err := tab.Load(v.th, entries); err != nil {
		panic(err)
	}
	return tab
}
