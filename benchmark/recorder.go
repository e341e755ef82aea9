package main

import (
	"cmp"
	"math"
	"sort"
	"time"

	"eleos/internal/hist"
)

// chunkWall is the wall time of one host-speed sample: the run is cut
// into chunks of about this length and the benchmark reports the median
// chunk, which a short stall on a shared machine cannot move.
const chunkWall = 100 * time.Millisecond

// recorder collects one phase's virtual latencies (exactly, for the
// percentiles, and in the system's HDR histogram), and samples host
// speed chunk by chunk and lane by lane. A nil *recorder records
// nothing.
type recorder struct {
	lat      []uint64
	h        *hist.H
	tr       *tracer
	deadline time.Time // zero: no deadline
	// minChunks holds the deadline off until this many chunks exist.
	minChunks int

	ids int64
	// The wall time since the previous request ended is charged to the
	// lane of the request that ends now.
	last, chunkStart time.Time
	chunkTime        []time.Duration // per lane, in the current chunk
	chunkReqs        []int
	chunks           [][]float64 // per lane: host µs per request of each chunk it served in
	nChunks          int
}

func newRecorder(tr *tracer, lanes int) *recorder {
	r := &recorder{h: hist.New(), tr: tr, chunkTime: make([]time.Duration, lanes),
		chunkReqs: make([]int, lanes), chunks: make([][]float64, lanes)}
	r.restart()
	return r
}

func (r *recorder) tracer() *tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// nextID numbers requests for the trace.
func (r *recorder) nextID() int64 {
	if r == nil {
		return -1
	}
	r.ids++
	return r.ids
}

// record adds one request's latency in virtual cycles.
func (r *recorder) record(lat uint64, parent int, id int64) {
	if r == nil {
		return
	}
	r.lat = append(r.lat, lat)
	sp := r.tr.begin("hist.record", parent, id)
	r.h.Record(lat)
	r.tr.end(sp)
}

// due charges the wall time since the previous request to lane, closes
// the current host-speed chunk once it is long enough, and reports
// whether the deadline has passed with enough chunks measured.
func (r *recorder) due(lane int) bool {
	if r == nil {
		return false
	}
	now := time.Now()
	r.chunkTime[lane] += now.Sub(r.last)
	r.chunkReqs[lane]++
	r.last = now
	if now.Sub(r.chunkStart) >= chunkWall {
		for l, n := range r.chunkReqs {
			if n > 0 {
				r.chunks[l] = append(r.chunks[l], r.chunkTime[l].Seconds()*1e6/float64(n))
			}
		}
		r.nChunks++
		r.restart()
	}
	return !r.deadline.IsZero() && now.After(r.deadline) && r.nChunks >= r.minChunks
}

// restart begins a new chunk, discarding time spent outside drives.
func (r *recorder) restart() {
	r.last = time.Now()
	r.chunkStart = r.last
	clear(r.chunkTime)
	clear(r.chunkReqs)
}

// mark returns how many chunks each lane has, for split.
func (r *recorder) mark() []int {
	m := make([]int, len(r.chunks))
	for l, c := range r.chunks {
		m[l] = len(c)
	}
	return m
}

// split cuts per-lane chunks at a mark.
func split(chunks [][]float64, at []int) (before, after [][]float64) {
	for l, c := range chunks {
		before = append(before, c[:at[l]])
		after = append(after, c[at[l]:])
	}
	return before, after
}

// hostUs is host µs per request: each lane's median chunk, weighted by
// the lane's share of the offered load as spec.json fixes it, so the
// number does not move with how many requests of each tenant a chunk or
// a seed happened to draw. A lane without chunks has nothing to weigh.
func hostUs(chunks [][]float64, lanes []LaneSpec) float64 {
	var sum, weight float64
	for l, c := range chunks {
		if len(c) == 0 {
			continue
		}
		share := lanes[l].Arrival.MeanKops()
		sum += share * median(c)
		weight += share
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

func (r *recorder) sorted() []uint64 {
	s := append([]uint64(nil), r.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the nearest-rank q-quantile of sorted values, or 0
// for none.
func quantile[T cmp.Ordered](sorted []T, q float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	i := min(max(int(math.Ceil(q*float64(len(sorted))))-1, 0), len(sorted)-1)
	return sorted[i]
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
