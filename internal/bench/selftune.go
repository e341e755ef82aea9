package bench

import (
	"fmt"

	"eleos/internal/exitio"
	"eleos/internal/report"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/tune"
)

func init() {
	register("selftune", "Configless self-tuning: diurnal load vs static worker pools", runSelfTune)
}

// The diurnal trace: phases of offered parallelism (each request is one
// batched exit-less submission carrying `par` independent ops), long
// enough that a static pool's fit — or misfit — dominates the phase.
type selfTunePhase struct {
	name string
	par  int
}

var selfTunePhases = []selfTunePhase{
	{"night", 1},
	{"morning", 4},
	{"noon", 8},
	{"afternoon", 4},
	{"evening", 1},
	{"peak", 8},
}

// Per-op worker cost (a syscall plus processing) and per-request caller
// think time, in virtual cycles. With 2k-cycle ops an 8-wide batch
// spreads across up to 8 workers, so the pool size is the phase's
// throughput lever.
const (
	stOpExtraCycles = 1750
	stThinkCycles   = 100
)

// selfTunePolicy is the controller policy the experiment hands to
// tune.New: default-shaped, with a short epoch and eager growth so
// convergence costs a small fraction of a phase even at -quick scale.
func selfTunePolicy() tune.Policy {
	return tune.Policy{
		EpochCycles:       60_000,
		MinWorkers:        1,
		MaxWorkers:        8,
		TargetUtilization: 0.7,
		Hysteresis:        1,
		ShrinkHysteresis:  3,
	}
}

// stServe drives phases of the diurnal trace on one serving thread and
// returns per-phase elapsed virtual cycles. pump, when non-nil, runs
// after every request (the self-tuned variant's controller hook).
func stServe(pool *rpc.Pool, th *sgx.Thread, reqs int, pump func(), phases []selfTunePhase) ([]uint64, error) {
	work := func(h *sgx.HostCtx) {
		h.Syscall(nil)
		h.Thread().T.Charge(stOpExtraCycles)
	}
	elapsed := make([]uint64, len(phases))
	for pi, ph := range phases {
		batch := make([]func(*sgx.HostCtx), ph.par)
		for i := range batch {
			batch[i] = work
		}
		start := th.T.Cycles()
		for r := 0; r < reqs; r++ {
			if err := pool.CallBatch(th, batch); err != nil {
				return nil, err
			}
			th.T.Charge(stThinkCycles)
			if pump != nil {
				pump()
			}
		}
		elapsed[pi] = th.T.Cycles() - start
	}
	return elapsed, nil
}

// runSelfTune compares one serving thread's throughput over the diurnal
// trace under static pools of 1/2/4/8 workers against the self-tuned
// pool (WithWorkerBounds-style: starts at 1, adapts inside [1, 8]). The
// configless claim is two-sided: the self-tuned pool tracks the best
// static configuration at every phase, and its mean worker count
// follows the load instead of peak-provisioning through the night.
func runSelfTune(rc RunConfig) (*Result, error) {
	reqs := rc.Ops / 25
	if reqs < 1500 {
		reqs = 1500
	}

	statics := []int{1, 2, 4, 8}
	phaseCycles := make(map[int][]uint64, len(statics))
	for _, w := range statics {
		v := enclaveEnv(0).withPool(w)
		el, err := stServe(v.pool, v.th, reqs, nil, selfTunePhases)
		v.close()
		if err != nil {
			return nil, err
		}
		phaseCycles[w] = el
	}

	// Self-tuned run: same trace, pool starting at the lower bound, the
	// controller pumped once per request. Worker counts are sampled per
	// request for the provisioning column.
	v := enclaveEnv(0).withPool(1)
	defer v.close()
	eng, err := exitio.NewEngine(exitio.ModeRPCAsync, v.pool)
	if err != nil {
		return nil, err
	}
	ctrl, err := tune.New(v.pool, eng, selfTunePolicy())
	if err != nil {
		return nil, err
	}
	var workerSum uint64
	var samples int
	pump := func() {
		ctrl.Pump(v.th)
		workerSum += uint64(v.pool.WorkerCount())
		samples++
	}
	meanWorkers := make([]float64, len(selfTunePhases))
	selfCycles := make([]uint64, len(selfTunePhases))
	ctrl.Pump(v.th) // baseline epoch
	for pi := range selfTunePhases {
		workerSum, samples = 0, 0
		one := selfTunePhases[pi : pi+1]
		el, err := stServe(v.pool, v.th, reqs, pump, one)
		if err != nil {
			return nil, err
		}
		selfCycles[pi] = el[0]
		meanWorkers[pi] = float64(workerSum) / float64(samples)
	}

	model := v.plat.Model
	t := report.New("Diurnal load: requests/s by worker provisioning (batched exit-less submission, 1 serving thread)",
		"phase", "offered par", "w=1 Kreq/s", "w=2 Kreq/s", "w=4 Kreq/s", "w=8 Kreq/s",
		"self Kreq/s", "self/best", "self mean w")
	t.Note = fmt.Sprintf("%d requests per phase; self-tuned pool bounds [1, 8], epoch %d cycles; best = max over the static pools per phase",
		reqs, selfTunePolicy().EpochCycles)
	tput := func(cyc uint64) float64 { return float64(reqs) / model.Seconds(cyc) / 1e3 }
	worstRatio := 1.0
	for pi, ph := range selfTunePhases {
		best := 0.0
		var cols []float64
		for _, w := range statics {
			v := tput(phaseCycles[w][pi])
			cols = append(cols, v)
			if v > best {
				best = v
			}
		}
		self := tput(selfCycles[pi])
		ratio := self / best
		if ratio < worstRatio {
			worstRatio = ratio
		}
		t.AddRow(ph.name, ph.par, cols[0], cols[1], cols[2], cols[3], self, ratio, meanWorkers[pi])
	}

	st := ctrl.Stats()
	ct := report.New("Controller activity over the trace",
		"epochs", "grows", "shrinks", "mode switches", "final workers", "final advice", "worst self/best")
	advice := st.Mode.String()
	if st.Chain {
		advice += "+chain"
	}
	ct.AddRow(st.Epochs, st.Grows, st.Shrinks, st.ModeSwitches, st.Workers, advice, worstRatio)

	return &Result{
		ID:     "selftune",
		Title:  "Configless self-tuning: diurnal load vs static worker pools",
		Tables: []*report.Table{t, ct},
	}, nil
}
