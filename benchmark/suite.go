package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

type suiteConfig struct {
	pick     func(*WorkloadSpec) int64
	seconds  float64
	trace    bool
	traceDir string
	out      string
}

// Results is the suite's results file: every process's value of every
// metric, per workload. benchmark/compare reads two of them.
type Results struct {
	Reps      int                             `json:"reps"`
	Seconds   float64                         `json:"seconds"`
	Workloads map[string]map[string]*Measured `json:"workloads"`
}

// Measured is one metric's values, one per process that measured it.
type Measured struct {
	Unit   string    `json:"unit"`
	Clock  string    `json:"clock"`
	Values []float64 `json:"values"`
}

// suiteReps is how many fresh processes the suite runs each workload in.
const suiteReps = 5

// runSuite runs every workload in suiteReps fresh processes. The
// processes go round-robin across workloads, with the starting workload
// rotating each round, so a slow spell of the machine lands on several
// workloads instead of on every repetition of one. Each process sets
// its workload up once: setup_s is the median over the processes.
func runSuite(spec *Spec, cfg suiteConfig) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := &Results{Reps: suiteReps, Seconds: cfg.seconds, Workloads: map[string]map[string]*Measured{}}
	n := len(spec.Workloads)
	for r := 0; r < suiteReps; r++ {
		for i := 0; i < n; i++ {
			w := &spec.Workloads[(i+r)%n]
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(cfg.pick(w), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-setups", "1", "-trace", "0"}
			vals, err := runChild(exe, w.Name, args)
			if err != nil {
				return err
			}
			if err := res.add(spec, w.Name, vals); err != nil {
				return err
			}
		}
	}
	if err := checkDeterministic(spec, res); err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.Metrics {
			if v, ok := res.Workloads[w.Name][m.Name]; ok {
				fmt.Printf("%s/%s %s %s\n", w.Name, m.Name, strconv.FormatFloat(median(v.Values), 'g', -1, 64), m.Unit)
			}
		}
	}
	if cfg.trace {
		for _, w := range spec.Workloads {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(cfg.pick(&w), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "1"}
			if cfg.traceDir != "" {
				args = append(args, "-trace-out", cfg.traceDir)
			}
			vals, err := runChild(exe, w.Name, args)
			if err != nil {
				return err
			}
			for _, m := range spec.Metrics {
				if v, ok := vals[m.Name]; ok && m.Trace {
					fmt.Printf("%s/%s %s %s\n", w.Name, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
				}
			}
		}
	}
	if cfg.out == "" {
		return nil
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(b, '\n'), 0o644)
}

// add appends one process's metric values for workload w.
func (res *Results) add(spec *Spec, w string, vals map[string]float64) error {
	ms := res.Workloads[w]
	if ms == nil {
		ms = map[string]*Measured{}
		res.Workloads[w] = ms
	}
	for name, v := range vals {
		m, ok := spec.metric(name)
		if !ok {
			return fmt.Errorf("%s: unknown metric %s", w, name)
		}
		if ms[name] == nil {
			ms[name] = &Measured{Unit: m.Unit, Clock: m.Clock}
		}
		ms[name].Values = append(ms[name].Values, v)
	}
	return nil
}

// runChild runs one workload process and parses its metric lines.
func runChild(exe, workload string, args []string) (map[string]float64, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s process failed: %w", workload, err)
	}
	return parseMetricLines(workload, out)
}

// parseMetricLines reads "<workload>/<metric> <value> <unit> [note]"
// lines.
func parseMetricLines(workload string, out []byte) (map[string]float64, error) {
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		name, ok := strings.CutPrefix(f[0], workload+"/")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad metric line %q", workload, sc.Text())
		}
		vals[name] = v
	}
	return vals, sc.Err()
}

// stealTolerance is the relative difference a virtual metric may show
// between processes on a workload whose RPC pool can hold more than one
// worker. Such a pool balances calls by stealing, and which worker runs
// a stolen call, and so the cycle the call settles at, is the host
// scheduler's choice: on tenants-shift that moves reap-stall and
// settled-work cycles by about 3e-4 and capacity by about 3e-5.
const stealTolerance = 1e-3

// checkDeterministic requires every virtual metric to be bit-identical
// across the processes that measured it, or within stealTolerance on a
// multi-worker workload.
func checkDeterministic(spec *Spec, res *Results) error {
	for w, ms := range res.Workloads {
		ws, err := spec.workload(w)
		if err != nil {
			return err
		}
		tol := 0.0
		if ws.Runtime.multiWorker() {
			tol = stealTolerance
		}
		for name, m := range ms {
			if m.Clock != "virtual" {
				continue
			}
			for _, v := range m.Values[1:] {
				if math.Abs(v-m.Values[0]) > tol*math.Abs(m.Values[0]) {
					return fmt.Errorf("%s/%s is not deterministic: %v", w, name, m.Values)
				}
			}
		}
	}
	return nil
}
