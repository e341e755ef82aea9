// Package epoch is the controller kernel that internal/tune and
// internal/fleet share. It has three pieces: an epoch clock on the
// pumping thread's virtual cycles, a hysteresis streak that fires after
// enough consecutive votes for the same outcome, and a bounded decision
// trace. It also holds the defaults and the validation of the
// grow/shrink hysteresis pair. Each controller adds only its signal
// function and its actuator. The SUVM swapper uses the clock alone: it
// ticks once per epoch, with no vote.
//
// The kernel takes no lock. Each piece is a plain value inside its
// controller, guarded by that controller's own mutex, so the kernel adds
// no rank to the lock order. Every input is a virtual-cycle count or a
// vote, so a single-threaded drive replays the same epochs, streaks and
// trace on every run.
//
// Trust domain: trusted — the pieces run inside the controllers' Pump
// on enclave serving threads.
//
//eleos:trusted
//eleos:deterministic
package epoch

import "fmt"

// DefaultEvery is the default epoch length in virtual cycles of the
// pumping thread (≈0.3 ms on the paper's machine).
const DefaultEvery = 1_000_000

// DefaultHysteresis is the default number of consecutive epochs that
// must agree before a controller grows something. Shrinks wait twice as
// long by default: scale up fast, down slowly.
const DefaultHysteresis = 2

// traceCap bounds every decision trace; a trace stops growing beyond it.
const traceCap = 4096

// Hysteresis applies the shared defaults to a grow/shrink vote pair and
// validates the result. A zero grow takes DefaultHysteresis and a zero
// shrink twice grow. A grow below 1 or a shrink below grow is an error.
func Hysteresis(grow, shrink int) (int, int, error) {
	if grow == 0 {
		grow = DefaultHysteresis
	}
	if shrink == 0 {
		shrink = 2 * grow
	}
	switch {
	case grow < 1:
		return 0, 0, fmt.Errorf("hysteresis %d < 1", grow)
	case shrink < grow:
		return 0, 0, fmt.Errorf("shrink hysteresis %d < hysteresis %d", shrink, grow)
	}
	return grow, shrink, nil
}

// Tick is what one clock tick observed.
type Tick uint8

const (
	// Idle means the next epoch boundary is not reached yet.
	Idle Tick = iota
	// Baseline is the first tick: the caller records its starting
	// counters and decides nothing.
	Baseline
	// Fire is an epoch boundary: the caller samples and decides.
	Fire
)

// Clock is an epoch clock. The first tick records the baseline; a later
// tick fires once now ≥ last boundary + Every.
type Clock struct {
	// Every is the epoch length in virtual cycles.
	Every uint64

	started bool
	last    uint64
	epochs  uint64
}

// Tick advances the clock to now. On Fire it also returns the cycles
// elapsed since the previous boundary, and now becomes the boundary.
// Off-epoch it is one comparison.
//
//eleos:hotpath budget=0
func (c *Clock) Tick(now uint64) (Tick, uint64) {
	if !c.started {
		c.started = true
		c.last = now
		return Baseline, 0
	}
	if now < c.last+c.Every {
		return Idle, 0
	}
	elapsed := now - c.last
	c.last = now
	c.epochs++
	return Fire, elapsed
}

// Epochs returns how many epochs have fired.
func (c *Clock) Epochs() uint64 { return c.epochs }

// Streak is a hysteresis gate over consecutive votes. A vote for a
// different key than the last one restarts the count; the streak fires,
// and starts over, when the count reaches the vote's need. The zero
// value is an empty streak.
type Streak[K comparable] struct {
	key K
	n   int
}

// Vote counts one vote for k and reports whether the streak fired. need
// may change from vote to vote; each vote compares the running count
// with its own need.
func (s *Streak[K]) Vote(k K, need int) bool {
	if s.n == 0 || k != s.key {
		s.key, s.n = k, 0
	}
	s.n++
	if s.n < need {
		return false
	}
	s.n = 0
	return true
}

// Reset ends the streak: the epoch voted for no change.
func (s *Streak[K]) Reset() { s.n = 0 }

// Count returns the running vote count.
func (s *Streak[K]) Count() int { return s.n }

// Trace is a bounded decision log. The zero value is empty.
type Trace[D any] struct {
	ds []D
}

// Add records d, or drops it once the trace holds traceCap decisions.
func (t *Trace[D]) Add(d D) {
	if len(t.ds) < traceCap {
		t.ds = append(t.ds, d)
	}
}

// Copy returns a copy of the recorded decisions. The copy is shallow:
// a caller whose decisions hold slices copies those itself.
func (t *Trace[D]) Copy() []D { return append([]D(nil), t.ds...) }
