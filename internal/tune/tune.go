// Package tune is the configless self-tuning runtime controller: a
// feedback loop that sizes the exit-less RPC worker pool and picks the
// exit-less I/O submission mode from live counters instead of hand-set
// knobs (after "SGX Switchless Calls Made Configless": the worker count
// and submission strategy only beat the baselines when they match the
// offered load, so the runtime should find them itself).
//
// The controller is sampled, not threaded: enclave serving loops call
// Pump at natural points (once per request is plenty — off-epoch Pumps
// are one comparison). The epoch clock, the vote streaks and the
// decision trace are internal/epoch's; this package adds the signals
// and the actuators. When the pumping thread's virtual clock crosses an
// epoch boundary the controller reads the pool and engine counters,
// forms two signals, and decides:
//
//   - demand — worker-cycles of settled service per caller-cycle
//     (SettledWorkCycles / elapsed): the offered parallelism. The pool
//     is resized toward ceil(demand / TargetUtilization), bounded by
//     [MinWorkers, MaxWorkers], after Hysteresis consecutive epochs
//     agree on the direction (shrinks wait ShrinkHysteresis epochs —
//     scale up fast, down slowly).
//   - the same demand picks the submission-mode advice: below 0.5 a
//     synchronous single-op loop is cheapest; above it the asynchronous
//     engine hides worker latency behind compute; above 1.5 submissions
//     should also be linked/batched so one doorbell carries many ops.
//
// Every decision input is derived from virtual-cycle counters that
// advance on the submitting threads (SettledWorkCycles, WaitCycles,
// ReapStallCycles, call counts, the pump thread's own clock), never
// from wall-clock time or host scheduling. A single-threaded drive
// therefore produces a bit-identical decision sequence on every run —
// the property the fixed-epoch determinism tests pin. Host-timing
// dependent counters (sleeps, wakes, instantaneous queue depth)
// are sampled into the observability Sample but never consulted by the
// decision logic.
//
// Trust domain: trusted — Pump runs on enclave serving threads and
// touches only the rpc/exitio boundary objects.
//
//eleos:trusted
//eleos:deterministic
package tune

import (
	"fmt"
	"math"
	"sync"

	"eleos/internal/epoch"
	"eleos/internal/exitio"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

// Policy sets the controller's bounds. The zero value of any field
// selects its default; Default() returns the fully-populated defaults.
type Policy struct {
	// EpochCycles is the decision period in virtual cycles of the
	// pumping thread (default epoch.DefaultEvery, 1e6).
	EpochCycles uint64
	// MinWorkers and MaxWorkers bound the RPC worker pool (defaults 1
	// and 8). The pool starts at MinWorkers and is never resized
	// outside the bounds.
	MinWorkers int
	MaxWorkers int
	// TargetUtilization is the per-worker demand the controller sizes
	// for: the pool is driven toward ceil(demand/TargetUtilization)
	// workers (default 0.85).
	TargetUtilization float64
	// Hysteresis is how many consecutive epochs must agree before the
	// controller grows the pool or switches mode advice (default 2; a
	// mode switch always needs at least two). ShrinkHysteresis gates
	// shrinks separately (default 2×Hysteresis), so a short lull does
	// not throw workers away.
	Hysteresis       int
	ShrinkHysteresis int
}

// The demand axis splits into the three submission strategies: below
// syncDemand the advice is synchronous single-op dispatch, above it
// asynchronous, and above chainDemand asynchronous with linked/batched
// chains.
const (
	syncDemand  = 0.5
	chainDemand = 1.5
)

// minModeVotes is the shortest mode streak: the first epoch that wants
// a new advice only opens the streak, so even Hysteresis 1 needs a
// second agreeing epoch before the advice flips.
const minModeVotes = 2

// Default returns the default policy.
func Default() Policy {
	return Policy{
		EpochCycles:       epoch.DefaultEvery,
		MinWorkers:        1,
		MaxWorkers:        8,
		TargetUtilization: 0.85,
		Hysteresis:        epoch.DefaultHysteresis,
		ShrinkHysteresis:  2 * epoch.DefaultHysteresis,
	}
}

// resolved fills zero fields with their defaults and validates the
// result.
func (p Policy) resolved() (Policy, error) {
	d := Default()
	if p.EpochCycles == 0 {
		p.EpochCycles = d.EpochCycles
	}
	if p.MinWorkers == 0 {
		p.MinWorkers = d.MinWorkers
	}
	if p.MaxWorkers == 0 {
		p.MaxWorkers = d.MaxWorkers
	}
	if p.TargetUtilization == 0 {
		p.TargetUtilization = d.TargetUtilization
	}
	var err error
	if p.Hysteresis, p.ShrinkHysteresis, err = epoch.Hysteresis(p.Hysteresis, p.ShrinkHysteresis); err != nil {
		return p, fmt.Errorf("tune: %w", err)
	}
	switch {
	case p.MinWorkers < 1:
		return p, fmt.Errorf("tune: MinWorkers %d < 1", p.MinWorkers)
	case p.MaxWorkers < p.MinWorkers:
		return p, fmt.Errorf("tune: MaxWorkers %d < MinWorkers %d", p.MaxWorkers, p.MinWorkers)
	case p.TargetUtilization <= 0 || p.TargetUtilization > 1:
		return p, fmt.Errorf("tune: TargetUtilization %g outside (0, 1]", p.TargetUtilization)
	}
	return p, nil
}

// Advice is the controller's current submission recommendation: the
// exitio dispatch mode plus whether submitters should link/batch ops
// into chains.
type Advice struct {
	Mode  exitio.Mode
	Chain bool
}

func adviceFor(demand float64) Advice {
	switch {
	case demand < syncDemand:
		return Advice{Mode: exitio.ModeRPCSync}
	case demand < chainDemand:
		return Advice{Mode: exitio.ModeRPCAsync}
	default:
		return Advice{Mode: exitio.ModeRPCAsync, Chain: true}
	}
}

// Sample is one epoch's raw counter deltas — the controller's
// observability record. Sleeps, Wakes and QueueDepth depend on host
// scheduling and are reported for inspection only; the decision logic
// never reads them.
type Sample struct {
	// ElapsedCycles is the pump thread's virtual-cycle delta over the
	// epoch.
	ElapsedCycles uint64
	// Deterministic rpc deltas: requests settled, their worker cycles,
	// and the residual latency callers could not hide.
	Calls             uint64
	SettledWorkCycles uint64
	WaitCycles        uint64
	// Deterministic exitio deltas.
	Doorbells       uint64
	ReapStallCycles uint64
	// Host-timing dependent rpc deltas (observability only).
	Sleeps uint64
	Wakes  uint64
	// QueueDepth is the instantaneous published-but-undequeued request
	// count at the epoch boundary (observability only).
	QueueDepth int64
}

// Decision is one epoch's outcome. Every field is derived from
// virtual-cycle counters, so in a single-driver run the sequence of
// Decisions is identical across runs.
type Decision struct {
	// Epoch is the 1-based decision ordinal; Cycles the pump thread's
	// clock at the boundary.
	Epoch  uint64
	Cycles uint64
	// Demand is worker-cycles of settled service per caller-cycle;
	// Stall the fraction of the epoch the callers spent blocked on
	// residual worker latency.
	Demand float64
	Stall  float64
	// Workers is the live pool size after the decision; Resized is set
	// when this epoch changed it.
	Workers int
	Resized bool
	// Mode and Chain are the advice after the decision; Switched is set
	// when this epoch changed it.
	Mode     exitio.Mode
	Chain    bool
	Switched bool
}

// Stats is a snapshot of the controller.
type Stats struct {
	// Enabled distinguishes a live controller from the zero value the
	// unified RuntimeStats tree reports when autotuning is off.
	Enabled bool
	// Epochs counts decisions taken; Grows/Shrinks pool resizes in each
	// direction; ModeSwitches advice changes.
	Epochs       uint64
	Grows        uint64
	Shrinks      uint64
	ModeSwitches uint64
	// Workers is the current live pool size, Mode/Chain the current
	// advice, Demand/Stall the last epoch's signals.
	Workers int
	Mode    exitio.Mode
	Chain   bool
	Demand  float64
	Stall   float64
	// Last is the most recent epoch's raw sample.
	Last Sample
}

// Controller is the feedback loop. One controller owns one pool and one
// engine; any number of serving threads may Pump it (an internal mutex
// serializes epochs), but determinism of the decision sequence is
// guaranteed only for a single pumping thread.
type Controller struct {
	pol  Policy
	pool *rpc.Pool
	eng  *exitio.Engine

	// mu serializes epoch evaluation and advice reads. Epochs call
	// Pool.Resize while holding it (rank 90 nests inside).
	//
	//eleos:lockorder 80
	mu sync.Mutex

	clock   epoch.Clock
	prevRPC rpc.Stats
	prevIO  exitio.Stats

	grows        uint64
	shrinks      uint64
	modeSwitches uint64
	advice       Advice
	lastDemand   float64
	lastStall    float64
	lastSample   Sample

	// resizeVotes is keyed by direction (true = grow), modeVotes by the
	// wanted advice.
	resizeVotes epoch.Streak[bool]
	modeVotes   epoch.Streak[Advice]

	trace epoch.Trace[Decision]
}

// New builds a controller over the pool and engine. The policy's zero
// fields take their defaults; the populated policy is validated. The
// initial advice matches the engine's default mode, so queues need no
// mode flip until the first epoch disagrees.
func New(pool *rpc.Pool, eng *exitio.Engine, pol Policy) (*Controller, error) {
	if pool == nil {
		return nil, fmt.Errorf("tune: nil worker pool")
	}
	if eng == nil {
		return nil, fmt.Errorf("tune: nil I/O engine")
	}
	pol, err := pol.resolved()
	if err != nil {
		return nil, err
	}
	c := &Controller{pol: pol, pool: pool, eng: eng, clock: epoch.Clock{Every: pol.EpochCycles}}
	c.advice = Advice{Mode: eng.Mode(), Chain: eng.Mode() == exitio.ModeRPCAsync}
	return c, nil
}

// Policy returns the controller's normalized policy.
func (c *Controller) Policy() Policy { return c.pol }

// Advice returns the current submission recommendation.
func (c *Controller) Advice() Advice {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.advice
}

// ApplyMode brings q onto the current mode advice, at a chain boundary
// (Queue.SetMode settles anything in flight first). Serving loops call
// it next to Pump; it is a no-op when the queue already matches.
func (c *Controller) ApplyMode(th *sgx.Thread, q *exitio.Queue) error {
	mode := c.Advice().Mode
	if q.Mode() == mode {
		return nil
	}
	return q.SetMode(th, mode)
}

// Pump gives the controller a chance to act. Cheap off-epoch (one clock
// comparison under the mutex); on an epoch boundary it samples the
// counters, decides, and applies any resize. Returns true when an epoch
// fired. th is the pumping thread; its virtual clock is the epoch
// timebase.
func (c *Controller) Pump(th *sgx.Thread) bool {
	now := th.T.Cycles()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch tick, elapsed := c.clock.Tick(now); tick {
	case epoch.Baseline:
		c.prevRPC, c.prevIO = c.pool.Stats(), c.eng.Stats()
	case epoch.Fire:
		c.decide(now, elapsed)
		return true
	}
	return false
}

// decide runs one epoch with c.mu held: the signals from the counter
// deltas, then the resize and mode votes.
func (c *Controller) decide(now, elapsed uint64) {
	rs := c.pool.Stats()
	is := c.eng.Stats()
	sample := Sample{
		ElapsedCycles:     elapsed,
		Calls:             rs.Calls - c.prevRPC.Calls,
		SettledWorkCycles: rs.SettledWorkCycles - c.prevRPC.SettledWorkCycles,
		WaitCycles:        rs.WaitCycles - c.prevRPC.WaitCycles,
		Doorbells:         is.Doorbells - c.prevIO.Doorbells,
		ReapStallCycles:   is.ReapStallCycles - c.prevIO.ReapStallCycles,
		Sleeps:            rs.Sleeps - c.prevRPC.Sleeps,
		Wakes:             rs.Wakes - c.prevRPC.Wakes,
		QueueDepth:        rs.QueueDepth,
	}
	c.prevRPC, c.prevIO = rs, is

	demand := float64(sample.SettledWorkCycles) / float64(elapsed)
	stall := float64(sample.WaitCycles) / float64(elapsed)
	c.lastDemand, c.lastStall, c.lastSample = demand, stall, sample

	workers := c.pool.WorkerCount()
	resized := c.voteResize(demand, workers)
	if resized {
		workers = c.pool.WorkerCount()
	}
	switched := c.voteMode(demand)

	c.trace.Add(Decision{
		Epoch:    c.clock.Epochs(),
		Cycles:   now,
		Demand:   demand,
		Stall:    stall,
		Workers:  workers,
		Resized:  resized,
		Mode:     c.advice.Mode,
		Chain:    c.advice.Chain,
		Switched: switched,
	})
}

// voteResize votes on the worker count and resizes the pool once enough
// consecutive epochs agree on the direction. Returns whether the pool
// changed.
func (c *Controller) voteResize(demand float64, workers int) bool {
	target := int(math.Ceil(demand / c.pol.TargetUtilization))
	target = min(max(target, c.pol.MinWorkers), c.pol.MaxWorkers)
	if target == workers {
		c.resizeVotes.Reset()
		return false
	}
	grow := target > workers
	need := c.pol.ShrinkHysteresis
	if grow {
		need = c.pol.Hysteresis
	}
	if !c.resizeVotes.Vote(grow, need) || c.pool.Resize(target) != nil {
		return false
	}
	if grow {
		c.grows++
	} else {
		c.shrinks++
	}
	return true
}

// voteMode votes on the advice. Returns whether the advice changed
// this epoch.
func (c *Controller) voteMode(demand float64) bool {
	want := adviceFor(demand)
	if want == c.advice {
		c.modeVotes.Reset()
		return false
	}
	if !c.modeVotes.Vote(want, max(c.pol.Hysteresis, minModeVotes)) {
		return false
	}
	c.advice = want
	c.modeSwitches++
	return true
}

// Stats returns a snapshot of the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Enabled:      true,
		Epochs:       c.clock.Epochs(),
		Grows:        c.grows,
		Shrinks:      c.shrinks,
		ModeSwitches: c.modeSwitches,
		Workers:      c.pool.WorkerCount(),
		Mode:         c.advice.Mode,
		Chain:        c.advice.Chain,
		Demand:       c.lastDemand,
		Stall:        c.lastStall,
		Last:         c.lastSample,
	}
}

// Trace returns a copy of the recorded decision sequence (the first
// 4096 decisions). Two runs of the same single-threaded load trace
// yield identical traces — the determinism contract the tests pin.
func (c *Controller) Trace() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trace.Copy()
}
