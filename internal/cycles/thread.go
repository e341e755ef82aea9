package cycles

import (
	"fmt"
	"sync/atomic"
)

// Thread is the cycle counter of one simulated hardware thread. All
// simulated costs incurred by code running "on" that thread are charged
// here. The counter is updated with atomics so that monitors (e.g. the
// benchmark harness) may read it concurrently, but a Thread is logically
// used by one goroutine at a time, like its sgx.Thread.
type Thread struct {
	id     int
	model  *Model
	cycles atomic.Uint64
}

// NewThread returns a thread counter bound to the given cost model.
func NewThread(id int, m *Model) *Thread {
	if m == nil {
		panic("cycles: nil model")
	}
	return &Thread{id: id, model: m}
}

// ID returns the thread's identifier, unique within its platform.
func (t *Thread) ID() int { return t.id }

// Model returns the cost model the thread charges against.
func (t *Thread) Model() *Model { return t.model }

// Charge adds n cycles to the thread's counter.
func (t *Thread) Charge(n uint64) { t.cycles.Add(n) }

// Cycles returns the total cycles charged so far.
func (t *Thread) Cycles() uint64 { return t.cycles.Load() }

// Reset zeroes the counter. Intended for benchmark warm-up boundaries.
func (t *Thread) Reset() { t.cycles.Store(0) }

// Seconds returns the thread's elapsed virtual time.
func (t *Thread) Seconds() float64 { return t.model.Seconds(t.Cycles()) }

func (t *Thread) String() string {
	return fmt.Sprintf("thread%d[%d cycles]", t.id, t.Cycles())
}

// Group aggregates the counters of threads that run concurrently.
// Virtual wall-clock time of a parallel phase is the maximum over the
// participating threads, mirroring how the paper measures end-to-end
// time of a multi-threaded server.
type Group struct {
	model   *Model
	threads []*Thread
}

// NewGroup creates an empty group over the given model.
func NewGroup(m *Model) *Group { return &Group{model: m} }

// Add appends a thread to the group and returns it, for chaining.
func (g *Group) Add(t *Thread) *Thread {
	g.threads = append(g.threads, t)
	return t
}

// Threads returns the group's members.
func (g *Group) Threads() []*Thread { return g.threads }

// MaxCycles returns the largest per-thread counter, i.e. the virtual
// elapsed time of the parallel phase.
func (g *Group) MaxCycles() uint64 {
	var max uint64
	for _, t := range g.threads {
		if c := t.Cycles(); c > max {
			max = c
		}
	}
	return max
}

// TotalCycles returns the sum over all threads (aggregate CPU work).
func (g *Group) TotalCycles() uint64 {
	var sum uint64
	for _, t := range g.threads {
		sum += t.Cycles()
	}
	return sum
}

// Seconds returns the virtual elapsed time of the parallel phase.
func (g *Group) Seconds() float64 { return g.model.Seconds(g.MaxCycles()) }

// Reset zeroes every member counter.
func (g *Group) Reset() {
	for _, t := range g.threads {
		t.Reset()
	}
}

// Throughput returns operations per virtual second given that the group
// collectively completed ops operations.
func (g *Group) Throughput(ops uint64) float64 {
	s := g.Seconds()
	if s == 0 {
		return 0
	}
	return float64(ops) / s
}
