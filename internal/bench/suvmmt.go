package bench

import (
	"math/rand"
	"sync"

	"eleos/internal/report"
	"eleos/internal/sgx"
)

func init() {
	register("suvm-mt", "SUVM fault-pipeline scaling: 1-8 threads, disjoint vs contended pages", suvmMT)
}

// suvmMT measures multi-threaded fault throughput through the sharded
// fault pipeline. Disjoint: the working set (4x EPC++) is partitioned
// per thread, so every fault is on a private page and the pipeline's
// layers (in-flight table, free pools, evictor) run fully in parallel —
// throughput should scale with threads, which the pre-pipeline global
// fault lock made impossible. Contended: all threads chase one shared
// page stream (same seed), so major faults collide on the same pages;
// the losers coalesce onto the winner's frame and are charged queueing
// delay in virtual time, visible in the coalesced and wait columns.
func suvmMT(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	const (
		epcpp    = 1 << 20 // 256 frames
		wsPages  = 1024    // 4 MiB working set = 4x EPC++
		pageSize = 4096
	)
	opsPerThread := rc.Ops / 20
	if opsPerThread < 200 {
		opsPerThread = 200
	}
	t := report.New("SUVM-MT: concurrent 64B accesses, 4x-EPC++ working set, per-thread ops fixed",
		"variant", "threads", "ops/s", "speedup", "cyc/op (max thread)", "coalesced", "wait kcyc", "scan len")
	t.Note = "speedup is virtual-time throughput vs 1 thread within the variant (strong scaling: total working set fixed, so per-thread partitions shrink and disjoint runs slightly super-linear from improved per-thread locality)"

	for _, variant := range []string{"disjoint", "contended"} {
		baseline := 0.0
		for _, threads := range []int{1, 2, 4, 8} {
			v := enclaveEnv(epcpp)
			p, err := v.heap.Malloc(wsPages * pageSize)
			if err != nil {
				return nil, err
			}
			zero := make([]byte, pageSize)
			for pg := 0; pg < wsPages; pg++ {
				if err := p.WriteAt(v.th, uint64(pg)*pageSize, zero); err != nil {
					return nil, err
				}
			}
			resetCounters(v.plat, v.th, v.heap)

			ths := []*sgx.Thread{v.th}
			for i := 1; i < threads; i++ {
				th := v.encl.NewThread()
				th.Enter()
				ths = append(ths, th)
			}
			var wg sync.WaitGroup
			for i, th := range ths {
				wg.Add(1)
				go func(i int, th *sgx.Thread) {
					defer wg.Done()
					// Disjoint: private page range, private stream.
					// Contended: full range, shared stream (same seed).
					seed, lo, span := int64(7), 0, wsPages
					if variant == "disjoint" {
						span = wsPages / threads
						lo = i * span
						seed = int64(200 + i)
					}
					rng := rand.New(rand.NewSource(seed))
					var buf [64]byte
					for n := 0; n < opsPerThread; n++ {
						pg := lo + rng.Intn(span)
						if err := p.ReadAt(th, uint64(pg)*pageSize, buf[:]); err != nil {
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
			st := v.heap.Stats()
			totalOps := threads * opsPerThread
			tput := float64(totalOps) / v.plat.Model.Seconds(max)
			if threads == 1 {
				baseline = tput
			}
			scanLen := 0.0
			if st.EvictScans > 0 {
				scanLen = float64(st.EvictScanFrames) / float64(st.EvictScans)
			}
			t.AddRow(variant, threads, tput, report.Ratio(tput, baseline),
				perOp(max, opsPerThread), st.FaultsCoalesced,
				float64(st.FaultWaitCycles)/1e3, scanLen)

			// Tear the iteration's enclave down (after the cycle counts
			// are read: Exit charges the exiting thread) so thread and
			// enclave state don't accumulate across the 8 runs.
			for _, th := range ths[1:] {
				th.Exit()
			}
			v.th.Exit()
			v.encl.Destroy()
		}
	}
	return &Result{ID: "suvm-mt", Title: "SUVM multi-threaded fault throughput", Tables: []*report.Table{t}}, nil
}
