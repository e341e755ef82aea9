package bench

import (
	"fmt"
	"sync"

	"eleos/internal/exitio"
	"eleos/internal/faceverify"
	"eleos/internal/loadgen"
	"eleos/internal/mckv"
	"eleos/internal/netsim"
	"eleos/internal/report"
	"eleos/internal/sgx"
)

func init() {
	register("fig10", "Face verification server throughput", fig10)
	register("fig11", "memcached throughput normalized to Graphene-SGX", fig11)
	register("tab4", "memcached absolute throughput (Kops/s)", tab4)
}

// faceConfig is one line of Fig 10.
type faceConfig struct {
	name      string
	placement faceverify.Placement
	sys       exitio.Mode
	epcpp     uint64
}

func faceConfigs() []faceConfig {
	return []faceConfig{
		{"native (no sgx)", faceverify.PlaceHost, exitio.ModeDirect, 0},
		{"sgx vanilla", faceverify.PlaceEnclave, exitio.ModeOCall, 0},
		{"eleos rpc", faceverify.PlaceEnclave, exitio.ModeRPCSync, 0},
		{"eleos rpc+suvm", faceverify.PlaceSUVM, exitio.ModeRPCSync, 60 << 20},
	}
}

// fig10: the §6.2.1 experiment. 2,000 identities (450MB of descriptors,
// ~4x PRM), one verification request per operation, swept over server
// thread counts. Native throughput is bounded by the 10GbE link.
func fig10(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	identities := uint64(2000)
	ops := rc.Ops / 25
	if rc.Quick {
		identities = 900 // ~200MB, still >2x PRM
	}
	if ops < 200 {
		ops = 200
	}
	t := report.New("Fig 10: face verification throughput (req/s)",
		"threads", "config", "req/s", "vs native", "link-bound?")
	t.Note = "paper: native is network-bound; SUVM reaches 95% of it; vanilla SGX 2.3x lower"

	reqTotal := faceverify.RequestBytes + 64
	type cell struct {
		threads int
		tput    float64
		capped  bool
	}
	results := make(map[string][]cell)
	for _, c := range faceConfigs() {
		var v *env
		if c.placement == faceverify.PlaceHost {
			v = hostEnv()
		} else {
			v = enclaveEnv(c.epcpp)
		}
		if c.sys == exitio.ModeRPCSync {
			v.withPool(2)
			v.plat.LLC.EnablePartitioning(4)
		}
		eng, err := exitio.NewEngine(c.sys, v.pool)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", c.name, err)
		}
		store, err := faceverify.NewStore(v.plat, v.th, faceverify.Config{
			Identities: identities,
			Placement:  c.placement,
			Heap:       v.heap,
			Synthetic:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", c.name, err)
		}
		var ths []*sgx.Thread
		var srvs []*faceverify.Server
		for _, threads := range []int{1, 2, 4} {
			for len(ths) < threads {
				var th *sgx.Thread
				if len(ths) == 0 {
					th = v.th
				} else if c.placement == faceverify.PlaceHost {
					th = v.plat.NewHostThread(0)
				} else {
					th = v.encl.NewThread()
					th.Enter()
				}
				ths = append(ths, th)
				srvs = append(srvs, faceverify.NewServerIO(store, eng))
			}
			runRound := func(perThread int) {
				var wg sync.WaitGroup
				for i := 0; i < threads; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						gen := loadgen.NewKeyGen(int64(threads*10+i), identities)
						for n := 0; n < perThread; n++ {
							id := gen.Next() - 1
							if _, err := srvs[i].Verify(ths[i], id, uint64(n)); err != nil {
								panic(fmt.Sprintf("fig10 %s: %v", c.name, err))
							}
						}
					}(i)
				}
				wg.Wait()
			}
			runRound(ops / threads / 4)
			for _, th := range ths[:threads] {
				th.T.Reset()
			}
			v.plat.Driver.ResetStats()
			runRound(ops / threads)

			var max uint64
			for _, th := range ths[:threads] {
				if cyc := th.T.Cycles(); cyc > max {
					max = cyc
				}
			}
			cpuTput := float64(ops/threads*threads) / v.plat.Model.Seconds(max)
			tput := netsim.CapToLink(cpuTput, reqTotal)
			results[c.name] = append(results[c.name],
				cell{threads: threads, tput: tput, capped: tput < cpuTput})
		}
		v.close()
	}
	for i, threads := range []int{1, 2, 4} {
		native := results["native (no sgx)"][i].tput
		for _, c := range faceConfigs() {
			r := results[c.name][i]
			lb := "no"
			if r.capped {
				lb = "yes"
			}
			t.AddRow(threads, c.name, r.tput, report.Ratio(r.tput, native), lb)
		}
	}
	return &Result{ID: "fig10", Title: "Face verification", Tables: []*report.Table{t}}, nil
}

// mcConfig is one line of Fig 11 / Table 4.
type mcConfig struct {
	name      string
	placement mckv.Placement
	sys       exitio.Mode
	epcpp     uint64
	poolBytes uint64 // 0 = the sweep's default
}

// mcRun loads a store and measures GET throughput (ops/s) for the given
// thread count.
func mcRun(rc RunConfig, c mcConfig, valueBytes, threads int, poolBytes uint64) (float64, error) {
	var v *env
	if c.placement == mckv.PlaceHost {
		v = hostEnv()
	} else {
		v = enclaveEnv(c.epcpp)
	}
	defer v.close()
	if c.sys == exitio.ModeRPCSync {
		v.withPool(2)
		v.plat.LLC.EnablePartitioning(4)
	}
	eng, err := exitio.NewEngine(c.sys, v.pool)
	if err != nil {
		return 0, err
	}
	if c.poolBytes != 0 {
		poolBytes = c.poolBytes
	}
	store, err := mckv.NewStore(v.plat, v.th, mckv.Config{
		MemLimitBytes: poolBytes,
		Placement:     c.placement,
		Heap:          v.heap,
	})
	if err != nil {
		return 0, err
	}

	// Fill to ~90% of the pool (memaslap's load phase).
	items := int(poolBytes * 9 / 10 / uint64(valueBytes+20+96))
	key := make([]byte, 20)
	val := make([]byte, valueBytes)
	for i := 0; i < items; i++ {
		copy(key, fmt.Sprintf("key-%016d", i))
		if err := store.Set(v.th, key, val); err != nil {
			return 0, fmt.Errorf("loading item %d: %w", i, err)
		}
	}

	srvs := make([]*mckv.Server, threads)
	ths := make([]*sgx.Thread, threads)
	for i := range srvs {
		if i == 0 {
			ths[i] = v.th
		} else if c.placement == mckv.PlaceHost {
			ths[i] = v.plat.NewHostThread(0)
		} else {
			ths[i] = v.encl.NewThread()
			ths[i].Enter()
		}
		srvs[i] = mckv.NewServerIO(store, eng)
	}
	ops := rc.Ops / 4
	run := func(perThread int) error {
		var wg sync.WaitGroup
		errs := make(chan error, threads)
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g := loadgen.NewKeyGen(int64(100+i), uint64(items))
				k := make([]byte, 20)
				for n := 0; n < perThread; n++ {
					copy(k, fmt.Sprintf("key-%016d", g.Next()-1))
					if _, err := srvs[i].ServeGet(ths[i], k); err != nil {
						errs <- fmt.Errorf("get: %w", err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	if err := run(ops / threads / 4); err != nil { // steady state
		return 0, err
	}
	for _, th := range ths {
		th.T.Reset()
	}
	v.plat.Driver.ResetStats()
	if err := run(ops / threads); err != nil {
		return 0, err
	}
	var max uint64
	for _, th := range ths {
		if cyc := th.T.Cycles(); cyc > max {
			max = cyc
		}
	}
	cpu := float64(ops/threads*threads) / v.plat.Model.Seconds(max)
	return netsim.CapToLink(cpu, mckv.GetRequestBytes(20)+valueBytes+40), nil
}

func mcConfigs() []mcConfig {
	return []mcConfig{
		{"graphene (ocall)", mckv.PlaceEnclave, exitio.ModeOCall, 0, 0},
		{"eleos rpc", mckv.PlaceEnclave, exitio.ModeRPCSync, 0, 0},
		{"eleos rpc+suvm", mckv.PlaceSUVM, exitio.ModeRPCSync, 60 << 20, 0},
		{"eleos rpc+suvm-direct", mckv.PlaceSUVMDirect, exitio.ModeRPCSync, 60 << 20, 0},
		{"graphene 20MB (no faults)", mckv.PlaceEnclave, exitio.ModeOCall, 0, 20 << 20},
		{"native (no sgx)", mckv.PlaceHost, exitio.ModeDirect, 0, 0},
	}
}

func mcPoolBytes(quick bool) uint64 {
	if quick {
		return 192 << 20 // ~2x PRM: same regime, CI-sized
	}
	return 500 << 20 // the paper's 4.5x PRM dataset
}

// fig11: GET throughput for 1KB and 4KB values, normalized to the
// Graphene baseline (the paper's Fig 11), 4 threads.
func fig11(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	t := report.New("Fig 11: memcached GET throughput normalized to Graphene-SGX (4 threads)",
		"value size", "config", "ops/s", "vs graphene")
	t.Note = "paper: SUVM-direct up to 2.2x Graphene; within 17% of the no-fault 20MB run"
	pool := mcPoolBytes(rc.Quick)
	for _, vs := range []int{1024, 4096} {
		base := 0.0
		for _, c := range mcConfigs() {
			tput, err := mcRun(rc, c, vs, 4, pool)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s/%d: %w", c.name, vs, err)
			}
			if c.name == "graphene (ocall)" {
				base = tput
			}
			t.AddRow(report.Bytes(uint64(vs)), c.name, tput, report.Ratio(tput, base))
		}
	}
	return &Result{ID: "fig11", Title: "memcached normalized throughput", Tables: []*report.Table{t}}, nil
}

// tab4: absolute Kops/s for {1KB,4KB} x {1,4} threads, Graphene vs
// Eleos vs native, with the slowdown factors the paper tabulates.
func tab4(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	t := report.New("Table 4: memcached throughput (Kops/s) and slowdown vs native",
		"value", "threads", "graphene", "eleos", "native", "graphene slowdown", "eleos slowdown")
	t.Note = "paper 1KB/1T: 21.4 (11.1x) vs 43.4 (5.2x) vs 229; 4KB/4T: 41.8 (6.6x) vs 86 (3.2x) vs 274"
	pool := mcPoolBytes(rc.Quick)
	for _, vs := range []int{1024, 4096} {
		for _, threads := range []int{1, 4} {
			g, err := mcRun(rc, mcConfigs()[0], vs, threads, pool) // graphene
			if err != nil {
				return nil, err
			}
			e, err := mcRun(rc, mcConfigs()[3], vs, threads, pool) // rpc+suvm-direct
			if err != nil {
				return nil, err
			}
			n, err := mcRun(rc, mcConfigs()[5], vs, threads, pool) // native
			if err != nil {
				return nil, err
			}
			t.AddRow(report.Bytes(uint64(vs)), threads,
				report.KOps(g), report.KOps(e), report.KOps(n),
				report.Ratio(n, g), report.Ratio(n, e))
		}
	}
	return &Result{ID: "tab4", Title: "memcached absolute throughput", Tables: []*report.Table{t}}, nil
}
