package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one run of one workload in this process.
type runConfig struct {
	seed    int64
	seconds float64
	setups  int // set-ups to take the median setup_s of
	// trace records spans and a CPU profile over the measured window
	// and reports the per-layer host metrics; traceDir, when set,
	// receives the Chrome trace and the profile.
	trace    bool
	traceDir string
}

// result is one run's metrics, keyed by name.
type result struct {
	workload  string
	values    map[string]float64
	samples   int // latencies behind each percentile
	attempted int
}

// minExtendChunks is how many host-speed chunks the run measures after
// the measured window at least, whatever --seconds says.
const minExtendChunks = 3

// runWorkload runs w once: set-up; the measured window of
// w.MeasuredReqs requests at the offered rate (virtual latencies,
// capacity and per-layer counters); then more requests at the offered
// rate until cfg.seconds have passed since the window began, for host
// speed only. Every response is checked as it arrives and the
// applications' final state at the end. Last, it sets w up again until
// it has cfg.setups set-up times.
func runWorkload(spec *Spec, w *WorkloadSpec, cfg runConfig) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setup := func() (*instance, float64, error) {
		t0 := time.Now()
		in, err := newInstance(spec, w, cfg.seed, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		return in, time.Since(t0).Seconds(), nil
	}
	in, first, err := setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if in != nil { // nil when a repeated set-up failed
			in.close()
		}
	}()

	res := &result{workload: w.Name, values: map[string]float64{}}
	model := in.rt.Platform().Model
	us := func(c uint64) float64 { return model.Seconds(c) * 1e6 }

	// The measured window.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	gc0 := gcCPU()
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		runtime.ReadMemStats(&ms0)
	}
	rec := newRecorder(tr, len(w.Lanes))
	before := in.snapshot()
	in.schedule(cfg.seed, phaseMeasure)
	ds, err := in.drive(w.MeasuredReqs, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	after := in.snapshot()
	windowEnd := rec.mark()
	if cfg.trace {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		gc1 := gcCPU()
		res.values["host.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ds.served)
		res.values["host.gc_cpu_frac"] = 0
		if total := gc1.total - gc0.total; total > 0 { // the runtime updates both at GC only
			res.values["host.gc_cpu_frac"] = (gc1.gc - gc0.gc) / total
		}
	}
	for k, v := range layerMetrics(before, after, ds) {
		res.values[k] = v
	}
	res.attempted = ds.served
	res.samples = ds.served
	lat := rec.sorted()
	res.values["lat_p50_us"] = us(quantile(lat, 0.5))
	res.values["lat_p99_us"] = us(quantile(lat, 0.99))
	res.values["traffic.lat_p999_us"] = us(quantile(lat, 0.999))
	res.values["capacity_kops"] = in.capacityKops(ds)
	if err := checkHist(rec, lat); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	// Host speed only, untraced: until the deadline, and at least a few
	// chunks.
	rec.tr, rec.deadline, rec.minChunks = nil, deadline, rec.nChunks+minExtendChunks
	rec.restart()
	in.schedule(cfg.seed, phaseExtend)
	ds, err = in.drive(math.MaxInt, rec)
	res.attempted += ds.served
	if !errors.Is(err, errStop) {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if cfg.trace {
		// The measured window's chunks carry the tracing cost.
		window, extension := split(rec.chunks, windowEnd)
		res.values["host_us_per_req"] = hostUs(extension, w.Lanes)
		res.values["trace.overhead_ratio"] = hostUs(window, w.Lanes) / hostUs(extension, w.Lanes)
	} else {
		res.values["host_us_per_req"] = hostUs(rec.chunks, w.Lanes)
	}

	if err := in.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rss, err := liveRSSMiB()
	if err != nil {
		return nil, err
	}
	res.values["host_rss_mib"] = rss

	// The other set-ups come after the resident set is read: the Go
	// allocator zeroes reused memory, which makes pages resident that a
	// fresh process's first instance never touches.
	setups := []float64{first}
	for len(setups) < cfg.setups {
		in.close()
		var secs float64
		if in, secs, err = setup(); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	res.values["setup_s"] = median(setups)

	if cfg.trace {
		if err := traceMetrics(res, tr, prof.Bytes()); err != nil {
			return nil, err
		}
		if cfg.traceDir != "" {
			if err := writeTrace(cfg.traceDir, w.Name, tr, prof.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// checkHist cross-checks the system's HDR histogram against the exact
// percentiles: its documented resolution is 1/32 of an octave.
func checkHist(rec *recorder, sorted []uint64) error {
	if rec.h.Count() != uint64(len(sorted)) {
		return fmt.Errorf("%w: histogram holds %d samples, recorded %d", errWrongOutput, rec.h.Count(), len(sorted))
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact, got := float64(quantile(sorted, q)), float64(rec.h.Quantile(q))
		if math.Abs(got-exact) > exact/32+1 {
			return fmt.Errorf("%w: histogram q%v = %v, exact %v", errWrongOutput, q, got, exact)
		}
	}
	return nil
}

// traceMetrics adds the span and profile metrics of a traced run.
func traceMetrics(res *result, tr *tracer, prof []byte) error {
	ms := time.Millisecond
	res.values["span.setup.runtime_ms"] = median(tr.durations("setup.runtime", ms))
	res.values["span.setup.load_ms"] = median(tr.durations("setup.load", ms))
	res.values["span.setup.warmup_ms"] = median(tr.durations("setup.warmup", ms))
	serve := tr.durations("serve", time.Microsecond)
	sort.Float64s(serve)
	res.values["span.serve_p50_us"] = quantile(serve, 0.5)
	res.values["span.serve_p99_us"] = quantile(serve, 0.99)
	res.values["span.fleet_next_us"] = median(tr.durations("fleet.next", time.Microsecond))
	res.values["span.hist_record_ns"] = median(tr.durations("hist.record", time.Nanosecond))
	res.values["span.stats_us"] = median(tr.durations("stats", time.Microsecond))
	self, err := profileSelf(prof)
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	for _, pkg := range profiledPackages {
		res.values["prof.self_pct."+pkg] = self[pkg]
	}
	return nil
}

func writeTrace(dir, workload string, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeChrome(filepath.Join(dir, workload+".trace.json")); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".cpu.pprof"), prof, 0o644)
}

type cpuTimes struct{ gc, total float64 }

// gcCPU reads the runtime's estimate of CPU seconds spent in GC and in
// total.
func gcCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// liveRSSMiB returns this process's resident set once garbage is
// collected and returned to the OS: the memory the simulated system
// holds, without the collector's slack, whose size depends on when the
// last cycle happened to run.
func liveRSSMiB() (float64, error) {
	debug.FreeOSMemory()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the resident set: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}
