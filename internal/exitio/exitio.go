// Package exitio is the unified exit-less I/O path: a typed,
// io_uring-style submission/completion layer over the simulator's OS
// services (netsim sockets, fsim files). Instead of each server
// hand-rolling a dispatch switch and issuing one synchronous
// pool.Call per recv and per send, enclave code describes operations as
// op structs, stages them on a per-thread Queue, optionally links
// consecutive ops into a chain that crosses the trust boundary on a
// single doorbell (the paper's batching idea applied to the request
// loop: SEND of response i rides the same submission as RECV of request
// i+1), and reaps typed completions. Endpoint is that request loop for
// one socket, the recv/send path every server and daemon shares.
//
// The engine carries a pluggable dispatch mode deciding how a staged
// chain reaches the untrusted side: executed inline on the caller's
// host context (native baseline), via an OCALL exit, via one
// synchronous exit-less RPC, or via the rpc pool's asynchronous path
// with residual-latency accounting at reap time. In single-op
// synchronous modes the engine charges exactly the cycle sequence of
// the per-server switches it replaced — the golden server fingerprint
// tests pin that equivalence bit-for-bit.
//
// Trust domain: trusted — submission, linking and reaping run on the
// enclave thread; only the chain executor (execChain and the op exec
// methods, annotated individually) runs untrusted.
//
//eleos:trusted
//eleos:deterministic
package exitio

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

// Mode selects how a submitted chain reaches the OS.
type Mode int

// Dispatch modes. The zero value is the native baseline.
const (
	// ModeDirect executes ops inline on the caller's host context —
	// the untrusted-server baseline (no enclave, no exits).
	ModeDirect Mode = iota
	// ModeOCall exits the enclave once per chain, runs the ops, and
	// re-enters — the SDK baseline the paper measures against.
	ModeOCall
	// ModeRPCSync delegates each chain to an untrusted worker with one
	// synchronous exit-less call (§3.1), charging the worker's full
	// latency to the caller.
	ModeRPCSync
	// ModeRPCAsync posts each chain through the rpc pool's async path:
	// the caller keeps computing and the residual latency — the part
	// its compute did not hide — is charged when the completion is
	// reaped.
	ModeRPCAsync
)

func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "native"
	case ModeOCall:
		return "ocall"
	case ModeRPCAsync:
		return "rpc-async"
	default:
		return "rpc"
	}
}

// ParseMode maps the CLI spellings onto dispatch modes.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "native", "direct":
		return ModeDirect, nil
	case "ocall":
		return ModeOCall, nil
	case "rpc", "rpc-sync":
		return ModeRPCSync, nil
	case "rpc-async", "async":
		return ModeRPCAsync, nil
	}
	return 0, fmt.Errorf("exitio: unknown dispatch mode %q (want native, ocall, rpc or rpc-async)", s)
}

// NeedsPool reports whether the mode dispatches through the rpc worker
// pool.
func (m Mode) NeedsPool() bool { return m == ModeRPCSync || m == ModeRPCAsync }

// check reports why an engine built with pool cannot dispatch in m: m
// is not one of the four modes, or it needs a pool and pool is nil.
func (m Mode) check(pool *rpc.Pool) error {
	switch {
	case m < ModeDirect || m > ModeRPCAsync:
		return fmt.Errorf("exitio: unknown dispatch mode %d", int(m))
	case m.NeedsPool() && pool == nil:
		return fmt.Errorf("exitio: %s dispatch requires a worker pool", m)
	}
	return nil
}

// counters is one set of engine activity counters — atomics only, no
// locks. The Engine embeds one for its aggregate view; a Group carries
// another so co-resident services multiplexed on one engine keep
// per-service doorbell accounting.
type counters struct {
	doorbells    atomic.Uint64
	chains       atomic.Uint64
	ops          atomic.Uint64
	linked       atomic.Uint64
	reapStall    atomic.Uint64
	modeSwitches atomic.Uint64
}

func (c *counters) stats() Stats {
	return Stats{
		Doorbells:       c.doorbells.Load(),
		Chains:          c.chains.Load(),
		Ops:             c.ops.Load(),
		Linked:          c.linked.Load(),
		ReapStallCycles: c.reapStall.Load(),
		ModeSwitches:    c.modeSwitches.Load(),
	}
}

// Engine is the shared half of the I/O layer: the dispatch mode, the
// worker pool for the RPC modes, and aggregate counters. One Engine is
// typically shared by all serving threads of a process (each with its
// own Queue); it holds no locks — the counters are atomics and all
// per-submission state lives in the Queues.
type Engine struct {
	mode Mode
	pool *rpc.Pool

	// chainPool recycles chain descriptors (ops/results storage, the
	// embedded future and the dispatch closure) across submissions, so
	// the steady-state submit→dispatch→reap path allocates nothing.
	chainPool sync.Pool

	counters
}

// getChain takes a recycled chain descriptor (or builds the first few).
// The dispatch closure is created once per chain object and survives
// recycling: it reads c.ops/c.res at execution time, which Submit
// reslices in place for every reuse.
//
//eleos:hotpath budget=0
func (e *Engine) getChain() *chain {
	c, _ := e.chainPool.Get().(*chain)
	if c == nil {
		//eleos:allow hotpath -- pool miss: warm-up allocations, amortized to zero in steady state
		c = new(chain)
		//eleos:allow hotpath -- closure built once per chain object, reused across recycles
		c.exec = func(h *sgx.HostCtx) { execChain(h, c.ops, c.res) }
	}
	return c
}

// putChain recycles a settled chain. Op references are dropped so
// caller buffers don't leak through the pool; slice capacity is kept.
//
//eleos:hotpath budget=0
func (e *Engine) putChain(c *chain) {
	for i := range c.ops {
		c.ops[i] = sqe{}
	}
	c.ops = c.ops[:0]
	c.res = c.res[:0]
	c.fut = rpc.Future{}
	e.chainPool.Put(c)
}

// NewEngine builds an engine. pool is required for the RPC modes and
// ignored otherwise; an unknown mode is an error.
func NewEngine(mode Mode, pool *rpc.Pool) (*Engine, error) {
	if err := mode.check(pool); err != nil {
		return nil, err
	}
	return &Engine{mode: mode, pool: pool}, nil
}

// Mode returns the engine's default dispatch mode — the mode new Queues
// start in. A queue may diverge later via Queue.SetMode.
func (e *Engine) Mode() Mode { return e.mode }

// Pool returns the worker pool (nil in the non-RPC modes).
func (e *Engine) Pool() *rpc.Pool { return e.pool }

// NewQueue creates a submission/completion queue in the engine's
// default dispatch mode. A Queue is owned by one serving thread: stage,
// submit and reap from that thread only (completion callbacks from the
// workers synchronize through the queue's wake channel).
func (e *Engine) NewQueue() *Queue {
	q := &Queue{eng: e, mode: e.mode, wake: make(chan struct{}, 1)}
	// The method value is bound once here: taking q.notifyOne per
	// submission would allocate a closure on the hot path.
	q.notify = q.notifyOne
	return q
}

// Group is one tenant's slice of engine activity: queues opened through
// NewGroupQueue mirror their counter updates into the group, so N
// services multiplexed on one engine (one doorbell path, one worker
// pool) still report per-service doorbells, chains and reap stalls.
// The mirroring is host-side atomics only — it costs no virtual cycles.
type Group struct {
	counters
}

// NewGroup creates an empty per-tenant counter group for this engine.
func (e *Engine) NewGroup() *Group { return &Group{} }

// Stats returns a snapshot of the group's share of engine activity.
func (g *Group) Stats() Stats { return g.stats() }

// NewGroupQueue creates a queue like NewQueue that additionally
// attributes its activity to g (nil behaves exactly like NewQueue).
func (e *Engine) NewGroupQueue(g *Group) *Queue {
	q := e.NewQueue()
	q.grp = g
	return q
}

// Stats is a snapshot of engine activity.
type Stats struct {
	// Doorbells counts boundary crossings: one per submitted chain,
	// whatever the mode (a direct/OCALL execution, one sync RPC, or
	// one async descriptor publish).
	Doorbells uint64
	// Chains and Ops count submitted chains and the ops they carried.
	Chains uint64
	Ops    uint64
	// Linked counts ops that rode an earlier op's doorbell (Ops minus
	// Chains).
	Linked uint64
	// ReapStallCycles accumulates the virtual cycles charged while
	// settling async completions at reap time: the residual worker
	// latency the caller's compute did not hide, plus completion polls.
	ReapStallCycles uint64
	// ModeSwitches counts Queue.SetMode calls that actually changed a
	// queue's dispatch mode — the self-tuning controller's live
	// engine-mode flips.
	ModeSwitches uint64
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats() }
