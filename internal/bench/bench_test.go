package bench

import (
	"math/rand"
	"testing"

	"eleos/internal/kv"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// TestRegistryComplete pins the experiment inventory: every table and
// figure of the paper plus the five ablations, each runnable by ID.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "tab1", "fig2a", "fig2b",
		"fig6a", "fig6b", "fig6c", "rpc-async", "io-engine", "selftune", "consolidation", "fleet", "traffic",
		"fig7a", "fig7b", "tab2", "suvm-mt", "fig8a", "fig8b", "tab3", "fig9", "pflat",
		"fig10", "fig11", "tab4",
		"abl-wb", "abl-link", "abl-pgsz", "abl-evict", "abl-batch",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %q, want %q", i, all[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Fatalf("Lookup(%q) failed", id)
		}
		if all[i].Title == "" || all[i].Run == nil {
			t.Fatalf("experiment %q incomplete", id)
		}
	}
	if _, ok := Lookup("no-such"); ok {
		t.Fatal("Lookup accepted an unknown ID")
	}
}

// TestTinyExperimentRuns executes cheap experiments end to end at a
// minimal op count, as a smoke test for the harness plumbing: tab1,
// fig8a, abl-link (seqWalk) and suvm-mt (runThreads). The other shared
// drivers only ever run on experiment-sized data, so they run here
// directly at toy sizes: every psArm, pagingRun over both buffers on 1
// and 2 threads, steadyState, and mcRun (serveThreads, armEnv) in its
// enclave RPC and native arms. Multi-threaded paging only reads: two
// simulated threads writing one page race on its bytes.
func TestTinyExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	for _, id := range []string{"tab1", "fig8a", "abl-link", "suvm-mt"} {
		e, _ := Lookup(id)
		res, err := e.Run(RunConfig{Ops: 2000, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
	for _, a := range []psArm{psHost, psOCall, psRPC, psRPCCAT, psEleos} {
		if end, _ := a.run(256<<10, kv.Chaining, 100, 4, 0); end == 0 {
			t.Fatalf("psArm %+v charged no cycles", a)
		}
	}
	for _, threads := range []int{1, 2} {
		v := enclaveEnv(0)
		if c := pagingRun(v, 64, 200, threads, false, enclavePages(v, 64)); c == 0 {
			t.Fatalf("SGX pagingRun on %d threads charged no cycles", threads)
		}
		u := enclaveEnv(256 << 10)
		pagingRun(u, 128, 200, threads, false, suvmPages(u, 128))
		if u.heap.Stats().MajorFaults == 0 {
			t.Fatalf("SUVM pagingRun over twice EPC++ on %d threads took no major faults", threads)
		}
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096)
	_, st := steadyState(suvm.Config{PageCacheBytes: 256 << 10, BackingBytes: 16 << 20}, 1<<20, 4096,
		func(th *sgx.Thread, p *suvm.SPtr) {
			for i := 0; i < 200; i++ {
				must(p.ReadAt(th, uint64(rng.Intn(256))*4096, buf))
			}
		})
	if st.MajorFaults == 0 {
		t.Fatal("steadyState over four times EPC++ measured no major faults")
	}
	for _, c := range []mcConfig{mcConfigs()[3], mcConfigs()[5]} { // rpc+suvm-direct, native
		c.poolBytes = 2 << 20
		tput, err := mcRun(RunConfig{Ops: 400}, c, 256, 2, 0)
		if err != nil || tput <= 0 {
			t.Fatalf("mcRun %s: %v ops/s, %v", c.name, tput, err)
		}
	}
}
