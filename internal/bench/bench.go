// Package bench contains one experiment per table and figure of the
// paper's evaluation (§2 and §6), each reconstructing its workload,
// parameter sweep and baselines, and printing rows shaped like the
// paper's. The cmd/eleos-bench binary runs them from the command line;
// bench_test.go exposes each as a testing.B benchmark.
//
// Absolute numbers come from the cost model and will not equal the
// paper's measurements from real silicon; the experiments are judged on
// shape — who wins, by what factor, where the crossovers fall — which
// EXPERIMENTS.md tabulates side by side with the paper's values.
//
// Bench output feeds the golden fingerprints, so the harness itself is
// checked by eleoslint for determinism: seeded rand only, no wall
// clock, no map-iteration-order dependence in anything printed.
//
//eleos:deterministic
package bench

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"eleos/internal/cache"
	"eleos/internal/exitio"
	"eleos/internal/report"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// RunConfig scales an experiment run.
type RunConfig struct {
	// Ops is the request/access count per configuration (the paper uses
	// 100k; Quick runs use less).
	Ops int
	// Runs is the number of seeded variance runs for experiments that
	// report mean/stddev columns (currently traffic); each run draws a
	// distinct schedule so cmd/perfdiff can judge regressions against
	// seed-to-seed spread.
	Runs int
	// Quick shrinks dataset sizes so the full suite runs in CI time.
	Quick bool
}

// Normalize fills defaults.
func (c RunConfig) Normalize() RunConfig {
	if c.Ops == 0 {
		if c.Quick {
			c.Ops = 20_000
		} else {
			c.Ops = 100_000
		}
	}
	if c.Runs == 0 {
		if c.Quick {
			c.Runs = 3
		} else {
			c.Runs = 5
		}
	}
	return c
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
}

// String renders all tables.
func (r *Result) String() string {
	s := fmt.Sprintf("=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	return s
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(RunConfig) (*Result, error)
}

var registry []Experiment

// register adds an experiment; its run sees a normalized RunConfig.
func register(id, title string, run func(RunConfig) (*Result, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: func(rc RunConfig) (*Result, error) {
		return run(rc.Normalize())
	}})
}

// All returns the registered experiments in a stable order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return orderOf(out[i].ID) < orderOf(out[j].ID) })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func orderOf(id string) int {
	order := []string{
		"fig1", "tab1", "fig2a", "fig2b",
		"fig6a", "fig6b", "fig6c", "rpc-async", "io-engine", "selftune", "consolidation", "fleet", "traffic",
		"fig7a", "fig7b", "tab2", "suvm-mt", "fig8a", "fig8b", "tab3", "fig9", "pflat",
		"fig10", "fig11", "tab4",
		"abl-wb", "abl-link", "abl-pgsz", "abl-evict", "abl-batch",
	}
	for i, o := range order {
		if o == id {
			return i
		}
	}
	return len(order)
}

// --- shared environment builders ---

// env is one platform with optionally an enclave, heap and RPC pool.
type env struct {
	plat *sgx.Platform
	encl *sgx.Enclave
	th   *sgx.Thread
	heap *suvm.Heap
	pool *rpc.Pool
}

// newPlatform builds the paper's machine.
func newPlatform() *sgx.Platform {
	return sgx.MustNewPlatform(sgx.Config{})
}

// armEnv builds one configuration of a server experiment: an untrusted
// host, or an enclave with an epcpp-byte SUVM heap (none when 0). An RPC
// mode gets a 2-worker pool, and cat gives those workers their 4-way
// LLC partition. The engine dispatches the server's socket in mode.
func armEnv(host bool, epcpp uint64, mode exitio.Mode, cat bool) (*env, *exitio.Engine) {
	var v *env
	if host {
		p := newPlatform()
		v = &env{plat: p, th: p.NewHostThread(cache.CoSDefault)}
	} else {
		v = enclaveEnv(epcpp)
	}
	if mode == exitio.ModeRPCSync {
		v.withPool(2)
	}
	if cat {
		v.plat.LLC.EnablePartitioning(4)
	}
	eng, err := exitio.NewEngine(mode, v.pool)
	must(err)
	return v, eng
}

// enclaveEnv builds a platform + enclave + entered thread, and a heap
// when epcpp > 0.
func enclaveEnv(epcpp uint64) *env {
	p := newPlatform()
	e, err := p.NewEnclave()
	if err != nil {
		panic(err)
	}
	th := e.NewThread()
	th.Enter()
	v := &env{plat: p, encl: e, th: th}
	if epcpp > 0 {
		h, err := suvm.New(e, th, suvm.Config{PageCacheBytes: epcpp, BackingBytes: 8 << 30})
		if err != nil {
			panic(err)
		}
		v.heap = h
	}
	return v
}

// withPool starts an RPC pool on the env.
func (v *env) withPool(workers int) *env {
	v.pool = rpc.NewPool(v.plat, workers, 256)
	v.pool.Start()
	return v
}

// close stops the pool.
func (v *env) close() {
	if v.pool != nil {
		v.pool.Stop()
	}
}

// threads extends ths to n threads on v: v.th first, then new host
// threads on a host env and new entered enclave threads otherwise.
func (v *env) threads(ths []*sgx.Thread, n int) []*sgx.Thread {
	for len(ths) < n {
		switch {
		case len(ths) == 0:
			ths = append(ths, v.th)
		case v.encl == nil:
			ths = append(ths, v.plat.NewHostThread(cache.CoSDefault))
		default:
			th := v.encl.NewThread()
			th.Enter()
			ths = append(ths, th)
		}
	}
	return ths
}

// runThreads runs body on every thread of ths at once, each in its own
// goroutine with its index, and returns the largest thread clock and
// the bodies' errors.
func runThreads(ths []*sgx.Thread, body func(i int, th *sgx.Thread) error) (uint64, error) {
	errs := make([]error, len(ths))
	var wg sync.WaitGroup
	for i, th := range ths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = body(i, th)
		}()
	}
	wg.Wait()
	var last uint64
	for _, th := range ths {
		last = max(last, th.T.Cycles())
	}
	return last, errors.Join(errs...)
}

// serveThreads runs serve(i, th, per/4) on every thread of ths as a
// warm-up, resets the threads' clocks and the paging driver's counters,
// then runs serve(i, th, per) and returns the largest thread clock.
func serveThreads(v *env, ths []*sgx.Thread, per int, serve func(i int, th *sgx.Thread, n int) error) (uint64, error) {
	if _, err := runThreads(ths, func(i int, th *sgx.Thread) error { return serve(i, th, per/4) }); err != nil {
		return 0, err
	}
	for _, th := range ths {
		th.T.Reset()
	}
	v.plat.Driver.ResetStats()
	return runThreads(ths, func(i int, th *sgx.Thread) error { return serve(i, th, per) })
}

// resetCounters is the warm-up boundary: it clears th's clock, TLB and
// enclave-cycle counters, heap's stats (heap may be nil) and the
// platform's LLC and paging-driver counters together, so a measurement
// starts from one shared epoch instead of the clock skew setup left.
// Resetting the platform again for a second thread is harmless.
func resetCounters(plat *sgx.Platform, th *sgx.Thread, heap *suvm.Heap) {
	th.T.Reset()
	th.TLB.ResetStats()
	th.ResetEnclaveCycles()
	plat.LLC.ResetStats()
	plat.Driver.ResetStats()
	if heap != nil {
		heap.ResetStats()
	}
}

// must panics on a set-up or workload error: every experiment's inputs
// are fixed, so one can only come from a bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// perOp converts total cycles to cycles/op.
func perOp(cycles uint64, ops int) float64 { return float64(cycles) / float64(ops) }
