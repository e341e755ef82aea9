package main

import (
	"eleos"
	"eleos/internal/sgx"
)

// counters is a snapshot of every counter the layers expose: the
// runtime's stats tree (rpc, exitio, suvm, fleet, tune), the platform's
// (driver, LLC), and the lanes' enclave exit counts.
type counters struct {
	st    eleos.RuntimeStats
	plat  sgx.Stats
	heap  eleos.HeapStats // summed over enclaves
	exits uint64
	fleet []eleos.FleetDecision
	tune  []eleos.TuneDecision
}

func (in *instance) snapshot() counters {
	c := counters{st: in.rt.Stats(), plat: in.rt.Platform().Stats()}
	for _, h := range c.st.Heaps {
		c.heap.MajorFaults += h.MajorFaults
		c.heap.MinorFaults += h.MinorFaults
		c.heap.Evictions += h.Evictions
		c.heap.WriteBacks += h.WriteBacks
		c.heap.CleanDrops += h.CleanDrops
		c.heap.FaultCycles += h.FaultCycles
		c.heap.FaultsCoalesced += h.FaultsCoalesced
		c.heap.DirectReads += h.DirectReads
	}
	for _, ln := range in.lanes {
		exits, _, _, _, _ := ln.encl.Raw().Stats().Snapshot()
		c.exits += exits
	}
	if f := in.rt.Fleet(); f != nil {
		c.fleet = f.Trace()
	}
	if t := in.rt.Tuner(); t != nil {
		c.tune = t.Trace()
	}
	return c
}

// layerMetrics turns the counter deltas over a window of served
// requests into the per-layer metrics. Each is per request unless its
// name says otherwise.
func layerMetrics(a, b counters, ds driveStats) map[string]float64 {
	n := float64(ds.served)
	t := ds.sum()
	per := func(x, y uint64) float64 { return float64(y-x) / n }
	frac := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	io0, io1 := a.st.IO, b.st.IO
	r0, r1 := a.st.RPC, b.st.RPC
	h0, h1 := a.heap, b.heap
	d0, d1 := a.plat.Driver, b.plat.Driver
	l0, l1 := a.plat.LLC, b.plat.LLC
	m := map[string]float64{
		"exitio.doorbells_per_req":      per(io0.Doorbells, io1.Doorbells),
		"exitio.ops_per_req":            per(io0.Ops, io1.Ops),
		"exitio.linked_per_req":         per(io0.Linked, io1.Linked),
		"exitio.reap_stall_cyc_per_req": per(io0.ReapStallCycles, io1.ReapStallCycles),

		"rpc.calls_per_req":             per(r0.Calls, r1.Calls),
		"rpc.wait_cyc_per_req":          per(r0.WaitCycles, r1.WaitCycles),
		"rpc.settled_work_cyc_per_req":  per(r0.SettledWorkCycles, r1.SettledWorkCycles),
		"rpc.sleeps_per_req":            per(r0.Sleeps, r1.Sleeps),
		"rpc.wakes_per_req":             per(r0.Wakes, r1.Wakes),
		"rpc.steals_per_req":            per(r0.Steals, r1.Steals),
		"suvm.major_faults_per_req":     per(h0.MajorFaults, h1.MajorFaults),
		"suvm.minor_faults_per_req":     per(h0.MinorFaults, h1.MinorFaults),
		"suvm.evictions_per_req":        per(h0.Evictions, h1.Evictions),
		"suvm.writebacks_per_req":       per(h0.WriteBacks, h1.WriteBacks),
		"suvm.clean_drop_frac":          frac(h1.CleanDrops-h0.CleanDrops, h1.Evictions-h0.Evictions),
		"suvm.fault_cyc_per_req":        per(h0.FaultCycles, h1.FaultCycles),
		"suvm.coalesced_per_req":        per(h0.FaultsCoalesced, h1.FaultsCoalesced),
		"suvm.direct_reads_per_req":     per(h0.DirectReads, h1.DirectReads),
		"sgx.exits_per_req":             per(a.exits, b.exits),
		"sgx.epc_faults_per_req":        per(d0.Faults, d1.Faults),
		"sgx.ewb_per_req":               per(d0.Evictions, d1.Evictions),
		"sgx.ipis_per_req":              per(d0.IPIs, d1.IPIs),
		"sgx.driver_queued_cyc_per_req": per(d0.QueuedCycles, d1.QueuedCycles),
		"sgx.share_updates":             float64(d1.ShareUpdates - d0.ShareUpdates),
		"llc.accesses_per_req":          per(l0.Hits+l0.Misses, l1.Hits+l1.Misses),
		"llc.miss_frac":                 frac(l1.Misses-l0.Misses, l1.Hits+l1.Misses-l0.Hits-l0.Misses),
		"llc.epc_miss_per_req":          per(l0.EPCMisses, l1.EPCMisses),
		"tune.grows":                    float64(b.st.Tune.Grows - a.st.Tune.Grows),
		"tune.shrinks":                  float64(b.st.Tune.Shrinks - a.st.Tune.Shrinks),
		"tune.mode_switches":            float64(b.st.Tune.ModeSwitches - a.st.Tune.ModeSwitches),
		"fleet.rebalances":              float64(b.st.Fleet.Rebalances - a.st.Fleet.Rebalances),
		"traffic.idle_frac":             frac(t.idle, t.elapsed),
		"traffic.stall_cyc_per_req":     float64(t.stall) / n,
		"traffic.samples":               n,
		"traffic.gen_lag_us":            0, // arrivals are virtual: see instance.drive
	}
	m["fleet.share_moved_mib"] = shareMovedMiB(a, b)
	m["tune.mean_workers"] = meanWorkers(a, b)
	return m
}

// window returns the decisions b's trace holds beyond a's.
func window[D any](a, b []D) []D {
	if len(b) < len(a) {
		return nil
	}
	return b[len(a):]
}

// shareMovedMiB sums, over the window's rebalances, the PRM the fleet
// controller moved between tenants: half the total absolute change of
// their shares.
func shareMovedMiB(a, b counters) float64 {
	prev := map[int]int{}
	for _, t := range a.st.Fleet.Tenants {
		prev[t.Enclave] = t.ShareFrames
	}
	var moved int
	for _, d := range window(a.fleet, b.fleet) {
		if !d.Rebalanced {
			continue
		}
		for _, t := range d.Tenants {
			delta := t.ShareFrames - prev[t.Enclave]
			if delta < 0 {
				delta = -delta
			}
			moved += delta
			prev[t.Enclave] = t.ShareFrames
		}
	}
	return float64(moved) / 2 * 4096 / (1 << 20)
}

// meanWorkers is the RPC pool size averaged over the window's tuning
// epochs, or the fixed pool size without a tuner.
func meanWorkers(a, b counters) float64 {
	ds := window(a.tune, b.tune)
	if len(ds) == 0 {
		return float64(b.st.RPC.Workers)
	}
	var sum int
	for _, d := range ds {
		sum += d.Workers
	}
	return float64(sum) / float64(len(ds))
}
