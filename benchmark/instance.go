package main

import (
	"errors"
	"fmt"

	"eleos"
	"eleos/internal/loadgen"
	"eleos/internal/traffic"
)

// lane is one tenant: an enclave with one serving context, its
// application, and the open-loop schedule currently being replayed
// against it.
type lane struct {
	spec LaneSpec
	encl *eleos.Enclave
	ctx  *eleos.Ctx
	app  app

	fleet *traffic.Fleet
	next  traffic.Request
	base  uint64 // the context's clock when the schedule started
}

// instance is one set-up workload: a runtime and its lanes.
type instance struct {
	w     *WorkloadSpec
	spec  *Spec
	rt    *eleos.Runtime
	lanes []*lane
}

// newInstance builds the runtime, enclaves and applications of w and
// loads them. tr records the set-up phases when tracing.
func newInstance(spec *Spec, w *WorkloadSpec, seed int64, tr *tracer) (in *instance, err error) {
	sp := tr.begin("setup.runtime", -1, -1)
	var opts []eleos.Option
	r := w.Runtime
	if r.RPCWorkers > 0 {
		opts = append(opts, eleos.WithRPCWorkers(r.RPCWorkers))
	}
	if r.MaxWorkers > 0 {
		opts = append(opts, eleos.WithWorkerBounds(r.MinWorkers, r.MaxWorkers))
	}
	if r.PRMMiB > 0 {
		opts = append(opts, eleos.WithMachine(eleos.MachineConfig{UsablePRMBytes: r.PRMMiB << 20}))
	}
	if r.FleetEpochCycles > 0 {
		opts = append(opts, eleos.WithFleetBalloon(eleos.FleetPolicy{EpochCycles: r.FleetEpochCycles}))
	}
	rt, err := eleos.NewRuntime(opts...)
	if err != nil {
		return nil, err
	}
	in = &instance{w: w, spec: spec, rt: rt}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	for _, l := range w.Lanes {
		encl, err := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: l.EPCMiB << 20})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.App, err)
		}
		ln := &lane{spec: l, encl: encl, ctx: encl.NewContext()}
		in.lanes = append(in.lanes, ln)
		if l.PresizeMiB > 0 {
			if err := encl.Heap().ResizeTo(ln.ctx.Thread(), l.PresizeMiB<<20); err != nil {
				return nil, fmt.Errorf("%s: presize: %w", l.App, err)
			}
		}
	}
	tr.end(sp)

	sp = tr.begin("setup.load", -1, -1)
	for i, ln := range in.lanes {
		if ln.app, err = buildApp(rt, ln.ctx, ln.spec, seed*7919+int64(i)); err != nil {
			return nil, fmt.Errorf("%s: %w", ln.spec.App, err)
		}
	}
	tr.end(sp)

	sp = tr.begin("setup.warmup", -1, -1)
	in.resetClocks()
	// The warm-up replays one schedule whatever the seed: on tenants-shift
	// the seed's mix of cheap and expensive tenants' requests would
	// otherwise move set-up time by a fifth.
	in.schedule(0, phaseWarmup)
	if _, err := in.drive(w.WarmupReqs, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tr.end(sp)
	return in, nil
}

// resetClocks starts a shared virtual-time epoch after loading: every
// serving thread's clock and the driver's fault queue restart at zero,
// so serving is not charged for queueing behind load-time faults.
func (in *instance) resetClocks() {
	for _, ln := range in.lanes {
		th := ln.ctx.Thread()
		th.T.Reset()
		th.TLB.ResetStats()
		th.ResetEnclaveCycles()
		ln.encl.Heap().ResetStats()
	}
	in.rt.Platform().LLC.ResetStats()
	in.rt.Platform().Driver.ResetStats()
}

func (in *instance) close() {
	for _, ln := range in.lanes {
		if ln.app != nil {
			ln.app.close()
		}
		ln.ctx.Close()
		ln.encl.Destroy()
	}
	in.rt.Close()
}

// check runs every lane's final correctness check, and for a runtime
// with a PRM share table, checks the table does not promise more PRM
// than the machine has.
func (in *instance) check() error {
	for _, ln := range in.lanes {
		if err := ln.app.check(); err != nil {
			return err
		}
	}
	if prm := in.w.Runtime.PRMMiB << 20; prm > 0 {
		var sum uint64
		for _, b := range in.rt.Platform().Driver.EPCShares() {
			sum += b
		}
		if sum > prm {
			return fmt.Errorf("%w: EPC shares sum to %d bytes, usable PRM is %d", errWrongOutput, sum, prm)
		}
	}
	return nil
}

// Schedule phases: each gets its own seeds, so the measured window does
// not replay the warm-up's arrivals.
const (
	phaseWarmup = iota + 1
	phaseMeasure
	phaseExtend
)

// schedule starts a fresh open-loop schedule on every lane.
func (in *instance) schedule(seed int64, phase int) {
	freq := in.rt.Platform().Model.Frequency
	ms := func(v float64) float64 { return v * freq / 1e3 }
	gap := func(kops float64) float64 { return freq / (kops * 1e3) }
	for i, ln := range in.lanes {
		s := seed*1_000_003 + int64(phase)*101 + int64(i)
		a := ln.spec.Arrival
		var proc traffic.Process
		if a.Kind == "poisson" {
			proc = traffic.NewPoisson(s, gap(a.Kops))
		} else {
			n := len(a.PhaseKops)
			phases := make([]traffic.PhaseRate, n)
			for p := range phases {
				k := (p + a.Shift) % n
				phases[p] = traffic.PhaseRate{Name: fmt.Sprint(k), MeanGap: gap(a.PhaseKops[k]), Cycles: uint64(ms(a.PhaseMs[k]))}
			}
			proc = traffic.NewDiurnal(s, phases)
		}
		keys := loadgen.NewKeyGen(s^0x5eed, ln.app.keySpace())
		if ln.spec.Zipf > 0 {
			keys.Zipfian(ln.spec.Zipf)
		}
		ln.fleet = traffic.NewFleet(s*31, proc, traffic.FleetConfig{
			Clients:      in.spec.Clients,
			MeanLifetime: ms(ln.spec.LifetimeMs),
			SlowFraction: in.spec.SlowFraction,
			StallCycles:  ln.spec.StallCycles,
			Keys:         keys,
		})
		ln.next = ln.fleet.Next()
		ln.base = ln.ctx.Cycles()
	}
}

// laneStats is one lane's open-loop accounting over a drive, in virtual
// cycles: its clock advanced by elapsed, of which idle waiting for
// arrivals and stall reading from slow clients; the rest was service.
type laneStats struct {
	served               int
	elapsed, idle, stall uint64
}

func (l laneStats) busy() uint64 { return l.elapsed - l.idle - l.stall }

// driveStats is the accounting of one drive, per lane.
type driveStats struct {
	served int
	lanes  []laneStats
}

// sum totals the lanes.
func (ds driveStats) sum() laneStats {
	var t laneStats
	for _, l := range ds.lanes {
		t.served += l.served
		t.elapsed += l.elapsed
		t.idle += l.idle
		t.stall += l.stall
	}
	return t
}

// statsEvery is how often a traced drive times a Runtime.Stats call.
const statsEvery = 1000

// errStop ends a drive at the recorder's deadline.
var errStop = errors.New("deadline reached")

// drive replays up to n requests from the lanes' schedules, always
// serving the earliest intended arrival next. Each lane is accounted the
// way traffic.Drive accounts a single server: a lane ahead of its
// schedule idles to the arrival, a slow client's stall is charged before
// serving, and latency runs from the intended arrival to completion, so
// queueing behind a slow request lands in the tail. The generator has
// no clock of its own to fall behind: arrivals are virtual, so every
// request is offered exactly when its schedule says. A nil rec discards
// the latencies.
func (in *instance) drive(n int, rec *recorder) (driveStats, error) {
	ds := driveStats{lanes: make([]laneStats, len(in.lanes))}
	start := make([]uint64, len(in.lanes))
	for i, ln := range in.lanes {
		start[i] = ln.ctx.Cycles()
	}
	defer func() {
		for i, ln := range in.lanes {
			ds.lanes[i].elapsed = ln.ctx.Cycles() - start[i]
		}
	}()
	tr := rec.tracer()
	for ds.served < n {
		li := 0
		for i, o := range in.lanes {
			if o.next.Arrival < in.lanes[li].next.Arrival {
				li = i
			}
		}
		ln, ls := in.lanes[li], &ds.lanes[li]
		req := ln.next
		th := ln.ctx.Thread().T
		if now := th.Cycles() - ln.base; now < req.Arrival {
			th.Charge(req.Arrival - now)
			ls.idle += req.Arrival - now
		}
		if req.Stall > 0 {
			th.Charge(req.Stall)
			ls.stall += req.Stall
		}
		id := rec.nextID()
		root := tr.begin("request", -1, id)
		sp := tr.begin("serve", root, id)
		err := ln.app.serve(req)
		tr.end(sp)
		if err != nil {
			return ds, fmt.Errorf("%s request %d: %w", ln.spec.App, req.Seq, err)
		}
		if in.rt.Tuner() != nil || in.rt.Fleet() != nil {
			in.pump(ln)
		}
		rec.record(th.Cycles()-ln.base-req.Arrival, root, id)
		ls.served++
		ds.served++
		if tr != nil && id%statsEvery == 0 {
			sp = tr.begin("stats", root, id)
			in.rt.Stats()
			tr.end(sp)
		}

		sp = tr.begin("fleet.next", root, id)
		ln.next = ln.fleet.Next()
		tr.end(sp)
		tr.end(root)
		if rec.due(li) {
			return ds, errStop
		}
	}
	return ds, nil
}

// capacityKops is the workload's saturation throughput over a drive, in
// thousands of requests per virtual second: the rate past which a server
// busy every cycle still falls behind and its backlog grows without
// bound. It is one over the mean service time, with each lane's mean
// service time weighted by its share of the offered load as spec.json
// fixes it, so the number does not move with how many requests of each
// tenant a seed happened to draw. A lane that served nothing in the
// drive has no service time to weigh.
func (in *instance) capacityKops(ds driveStats) float64 {
	var svc, weight float64 // seconds, offered kreq/s
	for i, ln := range in.lanes {
		l := ds.lanes[i]
		if l.served == 0 {
			continue
		}
		share := ln.spec.Arrival.MeanKops()
		svc += share * in.rt.Platform().Model.Seconds(l.busy()) / float64(l.served)
		weight += share
	}
	return 1e-3 * weight / svc
}

// pump gives the runtime's controllers their epoch on the lane's clock;
// when the self-tuner changes its I/O mode advice, the lane's server
// queue follows at this chain boundary.
func (in *instance) pump(ln *lane) {
	if !ln.ctx.Pump() {
		return
	}
	if tn := in.rt.Tuner(); tn != nil {
		// The queue is the runtime engine's and the advice is always a
		// pool mode, so this cannot fail.
		_ = tn.ApplyMode(ln.ctx.Thread(), ln.app.queue())
	}
}
