// Command benchmark is the Eleos simulator's end-to-end benchmark: four
// open-loop workloads at fixed offered rates, virtual-time latency and
// capacity, host speed, set-up time and memory, and per-layer counters.
//
// With -workload it runs that workload once in this process, prints
// every metric as "<workload>/<metric> <value> <unit>", and ends with
// one JSON line holding the end-to-end metrics (or, with -trace 1, the
// per-layer ones). Without -workload it runs the suite: every workload
// in several fresh processes, interleaved, checks that virtual metrics
// are bit-identical across them, and reports medians. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload once in this process (default: the whole suite)")
		seed     = flag.Int64("seed", 0, "workload seed (default: each workload's seed in spec.json)")
		heldOut  = flag.Bool("held-out", false, "use each workload's held-out seed")
		seconds  = flag.Float64("seconds", 0, "seconds each run measures host speed for (default 10 for one workload, 2 per process in the suite)")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		traceOut = flag.String("trace-out", "", "directory for the Chrome trace and CPU profile of traced runs")
		setups   = flag.Int("setups", 0, "set-ups per run, setup_s being their median (default setup_reps in spec.json)")
		out      = flag.String("out", "", "suite: write the results JSON here")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	pick := func(w *WorkloadSpec) int64 {
		switch {
		case seedSet:
			return *seed
		case *heldOut:
			return w.HeldOutSeed
		}
		return w.Seed
	}
	if *workload == "" {
		secs := *seconds
		if secs == 0 {
			secs = 2
		}
		if err := runSuite(spec, suiteConfig{pick: pick, seconds: secs, trace: *trace == 1, traceDir: *traceOut, out: *out}); err != nil {
			fatal(err)
		}
		return
	}

	w, err := spec.workload(*workload)
	if err != nil {
		fatal(err)
	}
	secs := *seconds
	if secs == 0 {
		secs = 10
	}
	// The enclave threads and the RPC workers hand requests to each other
	// by spinning on runtime.Gosched. On one processor that handoff is a
	// goroutine switch. On several it costs twice as much, and how much
	// depends on whether the OS runs both threads on one CPU, which
	// anything else running on the machine changes. Virtual metrics do
	// not depend on it.
	runtime.GOMAXPROCS(1)
	if *setups == 0 {
		*setups = spec.SetupReps
	}
	res, err := runWorkload(spec, w, runConfig{seed: pick(w), seconds: secs, setups: *setups, trace: *trace == 1, traceDir: *traceOut})
	if errors.Is(err, errWrongOutput) {
		printJSON(map[string]any{"correct": false, "attempted": 1, "failed": 1, "metrics": map[string]any{}})
	}
	if err != nil {
		fatal(err)
	}
	if err := report(spec, res, *trace == 1); err != nil {
		fatal(err)
	}
}

// report prints every metric of res in spec order, then the result
// line: the end-to-end metrics, or the per-layer ones of a traced run.
// A latency percentile carries its sample count after the unit.
func report(spec *Spec, res *result, traced bool) error {
	metrics := map[string]any{}
	for _, m := range spec.Metrics {
		v, ok := res.values[m.Name]
		switch {
		case !ok && m.Trace && !traced:
			continue
		case !ok:
			return fmt.Errorf("%s: metric %s was not measured", res.workload, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("%s: metric %s is %v", res.workload, m.Name, v)
		}
		line := fmt.Sprintf("%s/%s %s %s", res.workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		if strings.Contains(m.Name, "lat_p") {
			line += fmt.Sprintf(" (n=%d)", res.samples)
		}
		fmt.Println(line)
		if (m.Kind == "per_layer") == traced {
			metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	for name := range res.values {
		if _, ok := spec.metric(name); !ok {
			return fmt.Errorf("%s: metric %s is missing from spec.json", res.workload, name)
		}
	}
	printJSON(map[string]any{"correct": true, "attempted": res.attempted, "failed": 0, "metrics": metrics})
	return nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
