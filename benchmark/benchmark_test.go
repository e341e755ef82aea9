package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// tinySpec is spec.json shrunk to smoke size: one set-up, a short
// warm-up and a short measured window per workload.
func tinySpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Workloads {
		w := &spec.Workloads[i]
		w.WarmupReqs = min(w.WarmupReqs, 20)
		w.MeasuredReqs = 40
	}
	return spec
}

func tinyRun(t *testing.T, spec *Spec, name string, traced bool) *result {
	t.Helper()
	w, err := spec.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(spec, w, runConfig{seed: w.Seed, seconds: 0.05, setups: 1, trace: traced})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON checks BENCHMARK.json against spec.json: the same
// workloads, and the same metrics with the same units, directions and
// kinds, within the limits the schema sets.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, spec.json %v", got, want)
	}

	type meta struct{ unit, better, kind string }
	listed := map[string]meta{}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		listed[m.Name] = meta{m.Unit, m.Better, "end_to_end"}
	}
	for _, m := range b.PerLayer {
		listed[m.Name] = meta{m.Unit, m.Better, "per_layer"}
	}
	if len(listed) != len(b.EndToEnd)+len(b.PerLayer) {
		t.Error("BENCHMARK.json lists a metric twice")
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	if m := listed["setup_s"]; m != (meta{"s", "lower", "end_to_end"}) {
		t.Errorf("setup_s is listed as %+v", m)
	}
	for n, m := range listed {
		if !name.MatchString(n) || !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("malformed metric %s: %+v", n, m)
		}
	}
	for _, m := range spec.Metrics {
		l, ok := listed[m.Name]
		switch {
		case !ok:
			t.Errorf("%s is in spec.json but not in BENCHMARK.json", m.Name)
		case l != meta{m.Unit, m.Better, m.Kind}:
			t.Errorf("%s: BENCHMARK.json says %+v, spec.json %s %s %s", m.Name, l, m.Unit, m.Better, m.Kind)
		}
		delete(listed, m.Name)
	}
	for n := range listed {
		t.Errorf("%s is in BENCHMARK.json but not in spec.json", n)
	}
}

// TestSmoke runs every workload at smoke size, traced, and checks that
// it measures exactly the metrics spec.json lists.
func TestSmoke(t *testing.T) {
	spec := tinySpec(t)
	var want []string
	for _, m := range spec.Metrics {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	for _, w := range spec.Workloads {
		res := tinyRun(t, spec, w.Name, true)
		var got []string
		for n := range res.values {
			got = append(got, n)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s measured %v, spec.json lists %v", w.Name, got, want)
		}
		if res.attempted < w.MeasuredReqs {
			t.Errorf("%s: %d requests attempted, want at least %d", w.Name, res.attempted, w.MeasuredReqs)
		}
	}
}

// TestDeterminismCheck runs kv-hot twice, untraced and traced: every
// virtual metric must agree, so the suite's check passes, and it must
// fire once one virtual value is changed. On tenants-shift, whose pool
// can grow to two workers, a change within stealTolerance passes and a
// larger one fires.
func TestDeterminismCheck(t *testing.T) {
	spec := tinySpec(t)
	res := &Results{Workloads: map[string]map[string]*Measured{}}
	for _, traced := range []bool{false, true} {
		r := tinyRun(t, spec, "kv-hot", traced)
		if err := res.add(spec, "kv-hot", r.values); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkDeterministic(spec, res); err != nil {
		t.Fatal(err)
	}
	p99 := res.Workloads["kv-hot"]["lat_p99_us"]
	p99.Values[1] *= 1.0001
	if err := checkDeterministic(spec, res); err == nil {
		t.Fatal("a changed lat_p99_us passed the determinism check")
	}

	for _, tc := range []struct {
		change float64
		fires  bool
	}{{1e-4, false}, {1e-2, true}} {
		capacity := &Measured{Clock: "virtual", Values: []float64{200, 200 * (1 + tc.change)}}
		res := &Results{Workloads: map[string]map[string]*Measured{"tenants-shift": {"capacity_kops": capacity}}}
		if err := checkDeterministic(spec, res); (err != nil) != tc.fires {
			t.Errorf("tenants-shift capacity changed by %v: check returned %v", tc.change, err)
		}
	}
}

// TestCorruptKVValue checks that the kv-hot response check catches a
// stale value and a value with one wrong byte.
func TestCorruptKVValue(t *testing.T) {
	spec := tinySpec(t)
	w, err := spec.workload("kv-hot")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInstance(spec, w, w.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	a := in.lanes[0].app.(*kvApp)
	th := a.ctx.Thread()
	const k = 3
	get := func() error {
		n, err := a.srv.ServeGet(th, a.keyOf(k))
		if err != nil {
			t.Fatal(err)
		}
		return a.verifyResponse(k, n)
	}
	if err := get(); err != nil {
		t.Fatalf("intact value: %v", err)
	}
	if err := a.srv.Store().Set(th, a.keyOf(k), a.valueOf(k, a.versions[k]+1)); err != nil {
		t.Fatal(err)
	}
	if err := get(); !errors.Is(err, errWrongOutput) {
		t.Errorf("stale value: got %v, want a wrong-output error", err)
	}
	torn := a.valueOf(k, a.versions[k])
	torn[len(torn)/2] ^= 1
	if err := a.srv.Store().Set(th, a.keyOf(k), torn); err != nil {
		t.Fatal(err)
	}
	if err := get(); !errors.Is(err, errWrongOutput) {
		t.Errorf("torn value: got %v, want a wrong-output error", err)
	}
}

// TestHostUsWeighsLanesByOfferedShare checks that host µs/request takes
// each lane's median chunk and weighs it by the lane's offered rate, not
// by how many requests it served, and skips a lane that has no chunks.
func TestHostUsWeighsLanesByOfferedShare(t *testing.T) {
	lane := func(kops float64) LaneSpec { return LaneSpec{Arrival: ArrivalSpec{Kind: "poisson", Kops: kops}} }
	lanes := []LaneSpec{lane(3), lane(1), lane(5)}
	chunks := [][]float64{{10, 12, 500, 8, 11}, {30}, nil}
	if got, want := hostUs(chunks, lanes), (3*11.0+1*30)/4; got != want {
		t.Errorf("hostUs = %v, want %v", got, want)
	}
	before, after := split(chunks, []int{1, 0, 0})
	if got := hostUs(before, lanes); got != 10 {
		t.Errorf("hostUs of the first chunk = %v, want 10", got)
	}
	if got, want := hostUs(after, lanes), (3*11.5+1*30)/4; got != want {
		t.Errorf("hostUs after the mark = %v, want %v", got, want)
	}
}
