package exitio

import (
	"errors"
	"fmt"

	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

// ErrCanceled marks the completion of an op that never ran because an
// earlier op in its linked chain failed (io_uring's short-circuit rule
// for IOSQE_IO_LINK).
var ErrCanceled = errors.New("exitio: op canceled: earlier op in linked chain failed")

// CQE is one completion-queue entry.
type CQE struct {
	// Kind and Tag echo the submitted op (Tag is caller-chosen via
	// PushTagged; 0 otherwise).
	Kind Kind
	Tag  uint64
	// N is the op's result count: bytes moved, or the fd for Open.
	N int
	// Err is the op's error, or ErrCanceled for linked ops skipped
	// after a failure.
	Err error
}

// sqe is one staged submission entry; link ties it to the previous
// entry's chain.
type sqe struct {
	op   Op
	tag  uint64
	link bool
}

type result struct {
	n   int
	err error
}

// chain is one in-flight linked submission: its ops, the worker-filled
// results, and the future publishing them. res is written by the worker
// before the future's done flag and read by the owner only after
// observing it. Chains are recycled through the engine's chainPool: the
// future is embedded (filled in place via CallAsyncInto), ops and
// res keep their capacity across reuses, and exec is the dispatch
// closure built once per chain object.
type chain struct {
	fut  rpc.Future
	ops  []sqe
	res  []result
	exec func(*sgx.HostCtx)
}

// Queue is a per-thread submission/completion queue. The owning thread
// stages ops (Push/PushLinked), rings the doorbell (Submit), and reaps
// typed completions (Reap/WaitN/SubmitAndWait); completions always
// surface in submission order. A reap that must wait settles the oldest
// chain through its future's Wait, the one way an enclave thread waits
// for an exit-less completion: run the chain on its idle worker's
// thread, else yield and check again. The only cross-thread touch
// points are the chains' futures, so a Queue needs no mutex, and must
// not be shared between serving threads.
type Queue struct {
	eng *Engine
	// grp, when non-nil, receives a mirror of every counter update the
	// queue makes on the engine — the per-service attribution for queues
	// opened with NewGroupQueue.
	grp *Group
	// mode is the queue's current dispatch mode. It starts as the
	// engine's default and may be changed between chains with SetMode —
	// the live engine-mode flip the self-tuning controller drives.
	mode   Mode
	staged []sqe
	// pending is the FIFO of in-flight chains. It is consumed through
	// pendHead rather than by reslicing, so when the queue drains the
	// slice rewinds to the start of its backing array and steady-state
	// submissions append into retained capacity instead of allocating.
	pending  []*chain
	pendHead int
	ready    []CQE
	// spare is the second half of the reap double buffer: take hands
	// out ready and starts filling spare, so steady-state reaping
	// recycles two buffers instead of allocating one per cycle. The
	// slice a reap returns is therefore only valid until the next
	// Reap/WaitN/SubmitAndWait call on the queue.
	spare []CQE
}

// Mode returns the queue's current dispatch mode.
func (q *Queue) Mode() Mode { return q.mode }

// SetMode switches the queue's dispatch mode at a chain boundary. Mode
// changes never cut a chain: every in-flight chain is settled under the
// old mode first (its completions join the ready list in submission
// order, with the usual residual-latency accounting on th), and ops
// staged but not yet submitted cross the boundary whole under the new
// mode at their Submit. Returns an error (leaving the mode unchanged)
// if the new mode is unknown or needs an rpc pool the engine was built
// without.
func (q *Queue) SetMode(th *sgx.Thread, m Mode) error {
	if m == q.mode {
		return nil
	}
	if err := m.check(q.eng.pool); err != nil {
		return err
	}
	for q.pendLen() > 0 {
		q.retireHead(th)
	}
	q.mode = m
	q.eng.modeSwitches.Add(1)
	if q.grp != nil {
		q.grp.modeSwitches.Add(1)
	}
	return nil
}

// Push stages op as the start of a new chain.
//
//eleos:hotpath budget=0
func (q *Queue) Push(op Op) { q.push(op, 0, false) }

// PushTagged stages op with a caller-chosen tag echoed in its CQE.
func (q *Queue) PushTagged(op Op, tag uint64) { q.push(op, tag, false) }

// PushLinked stages op linked to the previously staged op: the two
// cross the boundary on one doorbell, execute in order, and a failure
// cancels the rest of the chain. With nothing staged it starts a new
// chain.
func (q *Queue) PushLinked(op Op) { q.push(op, 0, true) }

// PushLinkedTagged is PushLinked with a completion tag.
func (q *Queue) PushLinkedTagged(op Op, tag uint64) { q.push(op, tag, true) }

//eleos:hotpath budget=0
func (q *Queue) push(op Op, tag uint64, link bool) {
	if len(q.staged) == 0 {
		link = false
	}
	//eleos:allow hotpath -- amortized: the staged list keeps its capacity across submits
	q.staged = append(q.staged, sqe{op: op, tag: tag, link: link})
}

// Staged returns the number of staged, not-yet-submitted ops.
func (q *Queue) Staged() int { return len(q.staged) }

// InFlight returns the number of submitted ops not yet reaped.
func (q *Queue) InFlight() int {
	n := 0
	for _, c := range q.pending[q.pendHead:] {
		n += len(c.ops)
	}
	return n
}

// execChain is the untrusted half of a submission: it runs each op's
// kernel call in order on the worker/OCALL/native host context and
// records per-op results. An op error cancels the rest of its chain.
//
//eleos:untrusted
//eleos:hotpath budget=0
func execChain(h *sgx.HostCtx, ops []sqe, res []result) {
	failed := false
	for i := range ops {
		if failed {
			res[i] = result{err: ErrCanceled}
			continue
		}
		n, err := ops[i].op.exec(h)
		res[i] = result{n: n, err: err}
		if err != nil {
			failed = true
		}
	}
}

// Submit rings the doorbell for everything staged: each chain crosses
// the boundary once, via the queue's dispatch mode. Synchronous modes
// (Direct, OCall, RPCSync) complete the chains before returning — a
// single-op chain in those modes charges exactly what the per-server
// switches used to. Both RPC modes publish each chain to the pool;
// ModeRPCSync settles it at once, ModeRPCAsync at reap. th is the
// owning enclave thread (a host thread in ModeDirect). On an rpc pool
// error the already-dispatched chains keep their completions and the
// remaining staged chains are dropped.
//
//eleos:hotpath budget=0
func (q *Queue) Submit(th *sgx.Thread) error {
	staged := q.staged
	q.staged = q.staged[:0]
	for start := 0; start < len(staged); {
		end := start + 1
		for end < len(staged) && staged[end].link {
			end++
		}
		// The chain keeps its own copy: q.staged's backing array is
		// reused by the next Push while async chains are in flight.
		// Chains come from the engine pool, so in steady state these
		// reslices reuse recycled capacity and allocate nothing.
		c := q.eng.getChain()
		if cap(c.ops) < end-start {
			//eleos:allow hotpath -- chain warm-up: capacity is reused once the chain recycles
			c.ops = make([]sqe, end-start)
		} else {
			c.ops = c.ops[:end-start]
		}
		copy(c.ops, staged[start:end])
		if cap(c.res) < len(c.ops) {
			//eleos:allow hotpath -- chain warm-up: capacity is reused once the chain recycles
			c.res = make([]result, len(c.ops))
		} else {
			c.res = c.res[:len(c.ops)]
		}
		start = end

		q.eng.doorbells.Add(1)
		q.eng.chains.Add(1)
		q.eng.ops.Add(uint64(len(c.ops)))
		q.eng.linked.Add(uint64(len(c.ops) - 1))
		if q.grp != nil {
			q.grp.doorbells.Add(1)
			q.grp.chains.Add(1)
			q.grp.ops.Add(uint64(len(c.ops)))
			q.grp.linked.Add(uint64(len(c.ops) - 1))
		}
		switch q.mode {
		case ModeDirect:
			execChain(th.HostContext(), c.ops, c.res)
			q.complete(c)
		case ModeOCall:
			th.OCall(c.exec)
			q.complete(c)
		case ModeRPCSync, ModeRPCAsync:
			if err := q.eng.pool.CallAsyncInto(&c.fut, th, c.exec); err != nil {
				q.eng.putChain(c)
				//eleos:allow hotpath -- cold error path: the pool refused the chain
				return fmt.Errorf("exitio: submit: %w", err)
			}
			//eleos:allow hotpath -- amortized: the pending list keeps its capacity across reaps
			q.pending = append(q.pending, c)
			if q.mode == ModeRPCSync {
				q.retireHead(th)
			}
		}
	}
	return nil
}

// complete moves a finished chain's results onto the completion list
// and recycles the chain.
//
//eleos:hotpath budget=0
func (q *Queue) complete(c *chain) {
	for i := range c.ops {
		//eleos:allow hotpath -- amortized: the ready list alternates two retained buffers
		q.ready = append(q.ready, CQE{
			Kind: c.ops[i].op.Kind(),
			Tag:  c.ops[i].tag,
			N:    c.res[i].n,
			Err:  c.res[i].err,
		})
	}
	q.eng.putChain(c)
}

// pendLen returns the number of in-flight chains.
//
//eleos:hotpath budget=0
func (q *Queue) pendLen() int { return len(q.pending) - q.pendHead }

// retireHead settles the oldest pending chain, waiting for it if it is
// still in flight: Wait charges the residual latency the owner's
// compute did not hide (plus the completion poll), and the chain's
// CQEs become reapable.
//
//eleos:hotpath budget=0
func (q *Queue) retireHead(th *sgx.Thread) {
	c := q.pending[q.pendHead]
	q.pending[q.pendHead] = nil
	q.pendHead++
	if q.pendHead == len(q.pending) {
		// Drained: rewind to the start of the backing array so the
		// capacity is reused by the next submission.
		q.pending = q.pending[:0]
		q.pendHead = 0
	}
	before := th.T.Cycles()
	c.fut.Wait(th)
	stall := th.T.Cycles() - before
	q.eng.reapStall.Add(stall)
	if q.grp != nil {
		q.grp.reapStall.Add(stall)
	}
	q.complete(c)
}

// collect retires every already-completed chain at the head of the
// pending list, preserving submission order.
//
//eleos:hotpath budget=0
func (q *Queue) collect(th *sgx.Thread) {
	for q.pendLen() > 0 && q.pending[q.pendHead].fut.Done() {
		q.retireHead(th)
	}
}

// take hands the accumulated completions to the caller and swaps in
// the spare buffer, so the next completions reuse retained capacity
// instead of allocating a fresh list per reap cycle. The returned
// slice is valid until the caller's next reap on this queue.
//
//eleos:hotpath budget=0
func (q *Queue) take() []CQE {
	out := q.ready
	q.ready = q.spare[:0]
	q.spare = out
	return out
}

// Reap returns the completions available right now, in submission
// order, without blocking. In the synchronous modes everything
// submitted is already complete.
//
//eleos:hotpath budget=0
func (q *Queue) Reap(th *sgx.Thread) []CQE {
	q.collect(th)
	return q.take()
}

// WaitN blocks until at least n completions are available (or nothing
// is in flight), then returns all of them in submission order.
//
//eleos:hotpath budget=0
func (q *Queue) WaitN(th *sgx.Thread, n int) []CQE {
	q.collect(th)
	for len(q.ready) < n && q.pendLen() > 0 {
		q.retireHead(th)
		q.collect(th)
	}
	return q.take()
}

// SubmitAndWait submits everything staged and waits for every in-flight
// chain, returning all completions in submission order — the
// convenience path for request/response loops.
//
//eleos:hotpath budget=0
func (q *Queue) SubmitAndWait(th *sgx.Thread) ([]CQE, error) {
	if err := q.Submit(th); err != nil {
		return nil, err
	}
	for q.pendLen() > 0 {
		q.retireHead(th)
	}
	return q.take(), nil
}

// FirstErr returns the first real completion error in cqes, preferring
// a root-cause error over the ErrCanceled entries that follow it.
func FirstErr(cqes []CQE) error {
	for _, c := range cqes {
		if c.Err != nil && !errors.Is(c.Err, ErrCanceled) {
			return c.Err
		}
	}
	for _, c := range cqes {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}
