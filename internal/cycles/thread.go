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
