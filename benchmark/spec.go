package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the benchmark's contract with the code under test: the
// workloads with their absolute offered rates and request counts, and
// the catalogue of every metric the benchmark prints. The rates were set
// once from the seed commit and are never recomputed from the code being
// measured, so a faster system shows up as lower latency and higher
// capacity rather than as a recalibrated load. The regression bounds of
// the end-to-end metrics live in BENCHMARK.json at the repository root.
//
//go:embed spec.json
var specJSON []byte

// Spec is the parsed spec.json.
type Spec struct {
	// Clients is the number of simulated client connections per lane;
	// SlowFraction is the share of connections that are slow clients.
	Clients      int     `json:"clients"`
	SlowFraction float64 `json:"slow_fraction"`
	// SetupReps is how many times a run sets the workload up; setup_s
	// is the median.
	SetupReps int            `json:"setup_reps"`
	Workloads []WorkloadSpec `json:"workloads"`
	Metrics   []MetricSpec   `json:"metrics"`
}

// WorkloadSpec is one workload: a runtime, one lane per tenant, and the
// request counts of each phase of a run.
type WorkloadSpec struct {
	Name        string      `json:"name"`
	Seed        int64       `json:"seed"`
	HeldOutSeed int64       `json:"held_out_seed"`
	Runtime     RuntimeSpec `json:"runtime"`
	Lanes       []LaneSpec  `json:"lanes"`
	// WarmupReqs are served at the offered rate during set-up;
	// MeasuredReqs make the window the virtual metrics come from.
	WarmupReqs   int `json:"warmup_reqs"`
	MeasuredReqs int `json:"measured_reqs"`
}

// RuntimeSpec configures eleos.NewRuntime.
type RuntimeSpec struct {
	RPCWorkers       int    `json:"rpc_workers,omitempty"`
	MinWorkers       int    `json:"min_workers,omitempty"`
	MaxWorkers       int    `json:"max_workers,omitempty"`
	PRMMiB           uint64 `json:"prm_mib,omitempty"`
	FleetEpochCycles uint64 `json:"fleet_epoch_cycles,omitempty"`
}

// multiWorker reports whether the runtime's RPC pool can hold more than
// one worker: a tuned pool up to MaxWorkers, or a fixed pool of
// RPCWorkers (the runtime's default of 2 when unset).
func (r RuntimeSpec) multiWorker() bool {
	if r.MaxWorkers > 0 {
		return r.MaxWorkers > 1
	}
	return r.RPCWorkers != 1
}

// LaneSpec is one served application in its own enclave, with the
// arrival process in front of it.
type LaneSpec struct {
	App string `json:"app"` // mckv, pserver or faceverify
	// Enclave sizing: EPC++ capacity, and an optional smaller size the
	// heap is ballooned to before loading.
	EPCMiB     uint64 `json:"epc_mib"`
	PresizeMiB uint64 `json:"presize_mib,omitempty"`
	// Application sizing (mckv: Keys × ValueBytes; pserver: DataMiB;
	// faceverify: Identities).
	Keys       uint64 `json:"keys,omitempty"`
	ValueBytes int    `json:"value_bytes,omitempty"`
	DataMiB    uint64 `json:"data_mib,omitempty"`
	Identities uint64 `json:"identities,omitempty"`
	// Zipf > 1 skews key draws; 0 draws uniformly.
	Zipf    float64     `json:"zipf,omitempty"`
	Arrival ArrivalSpec `json:"arrival"`
	// StallCycles is the read stall of each slow-client request;
	// LifetimeMs is the mean client-connection lifetime (virtual).
	StallCycles uint64  `json:"stall_cycles"`
	LifetimeMs  float64 `json:"lifetime_ms"`
}

// ArrivalSpec is an open-loop arrival process with absolute rates in
// thousands of requests per virtual second.
type ArrivalSpec struct {
	Kind string `json:"kind"` // poisson or diurnal
	// Poisson.
	Kops float64 `json:"kops,omitempty"`
	// Diurnal: a repeating schedule of phases, PhaseKops[i] held for
	// PhaseMs[i]; the lane starts at phase Shift, so tenants can peak
	// one after another.
	PhaseKops []float64 `json:"phase_kops,omitempty"`
	PhaseMs   []float64 `json:"phase_ms,omitempty"`
	Shift     int       `json:"shift,omitempty"`
}

// MeanKops is the long-run offered rate of the process.
func (a ArrivalSpec) MeanKops() float64 {
	if a.Kind == "poisson" {
		return a.Kops
	}
	var reqs, ms float64
	for i, k := range a.PhaseKops {
		reqs += k * a.PhaseMs[i]
		ms += a.PhaseMs[i]
	}
	return reqs / ms
}

// MetricSpec describes one printed metric. Kind is end_to_end or
// per_layer. Clock is virtual (simulated time and event counts,
// bit-identical across processes for a seed), host (wall clock or
// memory of the machine running the simulator) or sched (counts that
// depend on host goroutine scheduling). Trace marks the metrics only a
// traced run produces. Layer names the module a per-layer metric
// belongs to and Moves the end-to-end metric and workload it should
// move.
type MetricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Kind   string `json:"kind"`
	Clock  string `json:"clock"`
	Trace  bool   `json:"trace,omitempty"`
	Layer  string `json:"layer"`
	Moves  string `json:"moves,omitempty"`
}

// loadSpec parses and validates the embedded spec.
func loadSpec() (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(specJSON))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	seen := map[string]bool{}
	for _, m := range s.Metrics {
		if seen[m.Name] {
			return nil, fmt.Errorf("spec.json: metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Kind != "end_to_end" && m.Kind != "per_layer" {
			return nil, fmt.Errorf("spec.json: metric %s: kind %q", m.Name, m.Kind)
		}
		if m.Clock != "virtual" && m.Clock != "host" && m.Clock != "sched" {
			return nil, fmt.Errorf("spec.json: metric %s: clock %q", m.Name, m.Clock)
		}
	}
	for _, w := range s.Workloads {
		if len(w.Lanes) == 0 || w.MeasuredReqs <= 0 {
			return nil, fmt.Errorf("spec.json: workload %s is incomplete", w.Name)
		}
		for _, l := range w.Lanes {
			a := l.Arrival
			switch {
			case a.Kind != "poisson" && a.Kind != "diurnal":
				return nil, fmt.Errorf("spec.json: workload %s: lane %s: arrival kind %q", w.Name, l.App, a.Kind)
			case a.Kind == "diurnal" && (len(a.PhaseKops) == 0 || len(a.PhaseKops) != len(a.PhaseMs)):
				return nil, fmt.Errorf("spec.json: workload %s: lane %s needs one duration per phase", w.Name, l.App)
			case a.MeanKops() <= 0:
				return nil, fmt.Errorf("spec.json: workload %s: lane %s has no offered rate", w.Name, l.App)
			}
		}
	}
	return &s, nil
}

// workload returns the named workload.
func (s *Spec) workload(name string) (*WorkloadSpec, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric returns the named metric's spec.
func (s *Spec) metric(name string) (MetricSpec, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSpec{}, false
}
