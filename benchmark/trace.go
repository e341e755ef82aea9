package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// maxSpans bounds the in-memory trace; spans past it are dropped.
const maxSpans = 1 << 20

// span is one timed call from the benchmark into a layer. Spans of one
// request share its id; parent indexes the enclosing span (-1: none).
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int32
	req        int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil || len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: int32(parent), req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.t0)
}

// durations returns the duration of every closed span named name, in
// the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): complete events in microseconds, with the request id and
// parent span in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"span": i, "parent": s.parent, "req": s.req},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
