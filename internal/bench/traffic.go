package bench

import (
	"fmt"
	"math"

	"eleos"
	"eleos/internal/hist"
	"eleos/internal/loadgen"
	"eleos/internal/report"
	"eleos/internal/traffic"
)

func init() {
	register("traffic",
		"Open-loop traffic: tail latency under Poisson, burst and diurnal arrivals with a churning client fleet",
		runTraffic)
}

// The traffic experiment replaces the closed-loop memaslap view (Figs
// 6-8) with the open-loop one production serves: arrivals do not wait
// for responses, so an overloaded phase builds a queue and the p99/p999
// show the queueing delay a closed-loop harness hides (coordinated
// omission). Each of the three servers runs behind its exit-less I/O
// daemon path under three arrival processes — steady Poisson at ~70%
// utilization, an on/off burst process whose on-state offers more than
// capacity, and a three-phase diurnal cycle peaking above capacity —
// with a churning client fleet (seeded connection lifetimes, a slow
// subset stalling reads). Latency is charged from each request's
// intended arrival cycle; histograms are HDR-style in virtual cycles.
//
// Every cell runs rc.Runs times under distinct seeds; the table
// reports mean and stddev columns so cmd/perfdiff can apply a
// variance-aware regression gate (see make bench-gate).

const (
	// trafficWarmup is the closed-loop calibration run per server: it
	// warms stores and measures the mean service cost that arrival
	// rates are derived from.
	trafficWarmup = 256
	// trafficClients is the concurrently-open connection count per
	// fleet.
	trafficClients = 64
	// trafficSlowFrac is the fraction of connections owned by slow
	// clients; trafficStallDiv divides the service cost to size their
	// per-request read stall.
	trafficSlowFrac  = 1.0 / 16
	trafficStallDiv  = 8
	trafficWorkloads = 3 // poisson, burst, diurnal
)

// trafficServer is one tenant behind its exit-less I/O daemon path,
// the key space the fleet draws from and whether to apply hot-key skew.
type trafficServer struct {
	spec     tenantSpec
	keySpace uint64
	zipf     float64 // 0 = uniform
}

var trafficServers = []trafficServer{
	{spec: tenantSpec{kind: tenantMckv, bytes: 8 << 20, items: 8192, value: 256}, keySpace: 8192, zipf: 1.2},
	{spec: tenantSpec{kind: tenantPserver, bytes: 4 << 20}, keySpace: 1024},
	{spec: tenantSpec{kind: tenantFace, items: 24}, keySpace: 24},
}

// trafficProcess builds the run's arrival process from the server's
// calibrated mean service cost. Utilizations are chosen so Poisson
// stays below capacity, the burst on-state and the diurnal peak exceed
// it, and off/night phases drain the queue. State holding times and
// phase spans scale with the run length n so every phase sees arrivals
// at any scale: the diurnal cycle fits one run (~n/3 arrivals per
// phase) and a burst on/off pair recurs a few times per run.
func trafficProcess(kind int, seed int64, svc float64, n int) traffic.Process {
	onGap, offGap := svc/1.5, svc/0.25 // 150% of capacity: the flash crowd; 25%: the drain
	nightGap, dayGap, peakGap := svc/0.25, svc/0.75, svc/1.25
	switch kind {
	case 0:
		return traffic.NewPoisson(seed, svc/0.70)
	case 1:
		return traffic.NewBurst(seed, traffic.BurstConfig{
			OnMeanGap:     onGap,
			OffMeanGap:    offGap,
			OnMeanCycles:  float64(n) / 8 * onGap,  // ~n/8 arrivals per burst
			OffMeanCycles: float64(n) / 4 * offGap, // ~n/4 arrivals per drain
		})
	default:
		return traffic.NewDiurnal(seed, []traffic.PhaseRate{
			{Name: "night", MeanGap: nightGap, Cycles: uint64(float64(n) / 3 * nightGap)},
			{Name: "day", MeanGap: dayGap, Cycles: uint64(float64(n) / 3 * dayGap)},
			{Name: "peak", MeanGap: peakGap, Cycles: uint64(float64(n) / 3 * peakGap)},
		})
	}
}

// trafficCell is one (server, process) cell aggregated over the
// variance runs.
type trafficCell struct {
	process   string
	phases    []string
	perPhase  []*hist.H // merged across runs
	p99PerRun [][]float64
	phaseReqs []uint64
	phaseGaps []uint64 // arrival-time span attributed to each phase
	kops      []float64
	svc       float64
	idle      uint64
	stall     uint64
	elapsed   uint64
	churns    uint64
	slowReqs  uint64
	reqs      int
}

// meanSD returns the sample mean and standard deviation.
func meanSD(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

func runTraffic(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	n := rc.Ops / 10
	if n < 500 {
		n = 500
	}

	latT := report.New("Open-loop tail latency by server, arrival process and phase",
		append([]string{"server", "process", "phase", "reqs", "offered K/s"},
			append(report.PercentileHeaders("cyc"), "p99 cyc sd")...)...)
	latT.Note = fmt.Sprintf("latency charged from intended arrival cycles (coordinated-omission-safe); histograms HDR-bucketed (~3%% resolution) and merged over %d seeded runs of %d requests; p99 sd across runs", rc.Runs, n)

	fleetT := report.New("Served throughput and client-fleet activity",
		"server", "process", "runs", "Kops/s", "Kops/s sd", "svc cyc", "idle %", "stall cyc/req", "conns", "churns", "slow reqs")
	fleetT.Note = fmt.Sprintf("%d connections per fleet, ~%.0f%% owned by slow clients stalling svc/%d cycles per read; conn lifetimes seeded-exponential so fleets churn",
		trafficClients, trafficSlowFrac*100, trafficStallDiv)

	for si, srv := range trafficServers {
		name := srv.spec.name()
		rt, err := eleos.NewRuntime(eleos.WithRPCWorkers(1))
		if err != nil {
			return nil, err
		}
		encl, err := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: 16 << 20})
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ctx := encl.NewContext()
		// The fleet draws each pserver batch's lead key; a dedicated
		// seeded generator draws the rest.
		tn, err := newTenant(rt, ctx, srv.spec, encl.Heap(), nil, loadgen.NewKeyGen(777, srv.spec.keys()))
		if err != nil {
			ctx.Close()
			encl.Destroy()
			rt.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}

		cells, err := runTrafficServer(rc, n, si, srv, rt, ctx, tn)
		tn.close()
		ctx.Close()
		encl.Destroy()
		rt.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}

		model := rt.Platform().Model
		for _, c := range cells {
			for ph, h := range c.perPhase {
				s := h.Snapshot()
				_, p99sd := meanSD(c.p99PerRun[ph])
				offered := 0.0
				if c.phaseGaps[ph] > 0 {
					offered = float64(c.phaseReqs[ph]) / model.Seconds(c.phaseGaps[ph]) / 1e3
				}
				latT.AddRow(append([]any{name, c.process, c.phases[ph], c.phaseReqs[ph], offered},
					append(report.PercentileCells(s.P50, s.P90, s.P99, s.P999, s.Max),
						fmt.Sprintf("%.0f", p99sd))...)...)
			}
			kmean, ksd := meanSD(c.kops)
			fleetT.AddRow(name, c.process, len(c.kops),
				kmean, fmt.Sprintf("%.2f", ksd),
				c.svc,
				100*float64(c.idle)/float64(c.elapsed),
				float64(c.stall)/float64(c.reqs),
				trafficClients, c.churns, c.slowReqs)
		}
	}

	return &Result{
		ID:     "traffic",
		Title:  "Open-loop traffic: tail latency under Poisson, burst and diurnal arrivals",
		Tables: []*report.Table{latT, fleetT},
	}, nil
}

// runTrafficServer calibrates one server's service cost, then replays
// every (process, run) cell against it.
func runTrafficServer(rc RunConfig, n, si int, srv trafficServer,
	rt *eleos.Runtime, ctx *eleos.Ctx, tn *tenant) ([]*trafficCell, error) {

	// Closed-loop warm-up doubles as calibration: the mean service cost
	// anchors every arrival rate, so utilization targets hold across
	// cost-model changes.
	warmGen := loadgen.NewKeyGen(511+int64(si), srv.keySpace)
	c0 := ctx.Cycles()
	for i := 0; i < trafficWarmup; i++ {
		if err := tn.serve(warmGen.Next()); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	svc := float64(ctx.Cycles()-c0) / trafficWarmup
	stall := uint64(svc / trafficStallDiv)

	cells := make([]*trafficCell, 0, trafficWorkloads)
	for kind := 0; kind < trafficWorkloads; kind++ {
		var cell *trafficCell
		for run := 0; run < rc.Runs; run++ {
			seed := int64(9000 + 1000*si + 100*kind + run)
			proc := trafficProcess(kind, seed, svc, n)
			if cell == nil {
				phases := proc.Phases()
				cell = &trafficCell{
					process:   proc.Name(),
					phases:    phases,
					perPhase:  make([]*hist.H, len(phases)),
					p99PerRun: make([][]float64, len(phases)),
					phaseReqs: make([]uint64, len(phases)),
					phaseGaps: make([]uint64, len(phases)),
					svc:       svc,
				}
				for i := range cell.perPhase {
					cell.perPhase[i] = hist.New()
				}
			}
			keys := loadgen.NewKeyGen(seed^0x5eed, srv.keySpace)
			if srv.zipf > 0 {
				keys.Zipfian(srv.zipf)
			}
			// The run spans roughly n*svc/0.7 cycles; a mean lifetime of
			// half that churns each connection about twice per run.
			fleet := traffic.NewFleet(seed*31, proc, traffic.FleetConfig{
				Clients:      trafficClients,
				MeanLifetime: float64(n) * svc / 0.7 / 2,
				SlowFraction: trafficSlowFrac,
				StallCycles:  stall,
				Keys:         keys,
			})

			runHists := make([]*hist.H, len(cell.phases))
			for i := range runHists {
				runHists[i] = hist.New()
			}
			var prevArrival uint64
			res, err := traffic.Drive(ctx.Thread().T, fleet, n,
				func(req traffic.Request, lat uint64) {
					runHists[req.Phase].Record(lat)
					cell.phaseGaps[req.Phase] += req.Arrival - prevArrival
					prevArrival = req.Arrival
				}, func(req traffic.Request) error { return tn.serve(req.Key) })
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", proc.Name(), run, err)
			}
			for ph, h := range runHists {
				cell.perPhase[ph].Merge(h)
				cell.phaseReqs[ph] += h.Count()
				if h.Count() > 0 {
					cell.p99PerRun[ph] = append(cell.p99PerRun[ph], float64(h.Quantile(0.99)))
				}
			}
			model := rt.Platform().Model
			cell.kops = append(cell.kops, float64(res.Served)/model.Seconds(res.Elapsed)/1e3)
			cell.idle += res.IdleCycles
			cell.stall += res.StallCycles
			cell.elapsed += res.Elapsed
			cell.churns += fleet.Churns()
			cell.slowReqs += fleet.SlowRequests()
			cell.reqs += res.Served
		}
		cells = append(cells, cell)
	}
	return cells, nil
}
