package eleos

import (
	"time"

	"eleos/internal/exitio"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// Ctx is an enclave execution context: one simulated hardware thread,
// entered into its enclave, with convenience access to SUVM allocation
// and exit-less system calls. A Ctx is owned by one goroutine; create
// one per worker.
type Ctx struct {
	e  *Enclave
	th *sgx.Thread
	io *IOQueue
	// svc binds the context to a carved service (Service.NewContext and
	// CrossCall callees): allocation routes to the service's heap domain
	// and I/O to its counter group. Nil for plain enclave contexts.
	svc *Service
}

// NewContext creates and enters a fresh hardware thread.
func (e *Enclave) NewContext() *Ctx {
	th := e.encl.NewThread()
	th.Enter()
	return &Ctx{e: e, th: th}
}

// Thread exposes the underlying simulated thread (for use with the
// lower-level SPtr and kv APIs).
func (c *Ctx) Thread() *sgx.Thread { return c.th }

// Enclave returns the owning enclave wrapper.
func (c *Ctx) Enclave() *Enclave { return c.e }

// Cycles returns the virtual cycles this context has consumed.
func (c *Ctx) Cycles() uint64 { return c.th.T.Cycles() }

// Elapsed converts the context's cycles to virtual time.
func (c *Ctx) Elapsed() time.Duration {
	return time.Duration(c.th.T.Seconds() * float64(time.Second))
}

// allocator returns where this context's allocations come from: its
// service's heap domain for service-bound contexts, the enclave's heap
// otherwise.
func (c *Ctx) allocator() suvm.Allocator {
	if c.svc != nil {
		return c.svc.dom
	}
	return c.e.heap
}

// Malloc allocates SUVM memory and returns a context-bound pointer. On
// a service-bound context the allocation comes from — and is paged by —
// the service's own heap domain.
func (c *Ctx) Malloc(n uint64) (*Ptr, error) {
	p, err := c.allocator().Malloc(n)
	if err != nil {
		return nil, err
	}
	return &Ptr{p: p, c: c}, nil
}

// MallocDirect allocates SUVM memory in sub-page direct-access mode.
func (c *Ctx) MallocDirect(n uint64) (*Ptr, error) {
	p, err := c.allocator().MallocDirect(n)
	if err != nil {
		return nil, err
	}
	return &Ptr{p: p, c: c}, nil
}

// Exitless delegates fn to an untrusted RPC worker without leaving the
// enclave — the Eleos replacement for OCALL. Panics if the runtime has
// been closed (use Runtime.Pool().Call for a recoverable error).
func (c *Ctx) Exitless(fn func(*HostCtx)) {
	if err := c.e.rt.pool.Call(c.th, fn); err != nil {
		panic("eleos: Exitless on a closed runtime: " + err.Error())
	}
}

// Go submits fn to an RPC worker asynchronously and returns a Future:
// the context keeps computing while the untrusted worker runs the call,
// and Future.Wait charges only the latency that compute did not hide
// (§3.1's asynchronous exit-less variant). Panics if the runtime has
// been closed.
func (c *Ctx) Go(fn func(*HostCtx)) *Future {
	f, err := c.e.rt.pool.CallAsync(c.th, fn)
	if err != nil {
		panic("eleos: Go on a closed runtime: " + err.Error())
	}
	return &Future{f: f, c: c}
}

// ExitlessBatch delegates all fns in one batched submission: a single
// amortized enqueue charge, execution spread across the worker pool, and
// the batch's parallel makespan — not the serial sum — observed as
// latency. Panics if the runtime has been closed.
func (c *Ctx) ExitlessBatch(fns ...func(*HostCtx)) {
	if err := c.e.rt.pool.CallBatch(c.th, fns); err != nil {
		panic("eleos: ExitlessBatch on a closed runtime: " + err.Error())
	}
}

// Future is a context-bound handle to an asynchronous exit-less call
// started with Ctx.Go. It belongs to the context that submitted it.
type Future struct {
	f *rpc.Future
	c *Ctx
}

// Done reports whether the call has completed, without blocking and
// without charging the context.
func (f *Future) Done() bool { return f.f.Done() }

// Wait blocks until the call completes, charging the context the
// residual latency its compute since Go did not hide, plus the
// completion poll. Idempotent.
func (f *Future) Wait() { f.f.Wait(f.c.th) }

// Raw returns the pool-level future (for use with explicit threads).
func (f *Future) Raw() *rpc.Future { return f.f }

// OCall performs a classic SDK OCALL (exit, run fn untrusted,
// re-enter) — kept for comparison and for genuinely blocking calls, as
// the paper does for poll(2).
func (c *Ctx) OCall(fn func(*HostCtx)) {
	c.th.OCall(fn)
}

// IO returns the context's exit-less I/O queue on the runtime's shared
// engine (rpc-async dispatch), creating it on first use. Typed ops
// replace hand-rolled Exitless closures for OS services:
//
//	q := ctx.IO()
//	q.Push(eleos.IOPwrite{FS: fs, FD: fd, Off: off, Data: frame})
//	q.PushLinked(eleos.IOFsync{FS: fs, FD: fd}) // same doorbell
//	cqes, _ := q.SubmitAndWait()
func (c *Ctx) IO() *IOQueue {
	if c.io == nil {
		q := c.e.rt.io.NewQueue()
		if c.svc != nil {
			q = c.e.rt.io.NewGroupQueue(c.svc.grp)
		}
		c.io = &IOQueue{q: q, c: c}
	}
	return c.io
}

// Pump gives the runtime's controllers and the enclave's swapper a
// chance to act, on this context's virtual clock. Serving loops call it
// once per request: off-epoch it costs one comparison per enabled
// controller and charges the context nothing. On an epoch boundary the
// self-tuning controller resizes the worker pool and refreshes its mode
// advice, which Pump then applies to the context's I/O queue (at a
// chain boundary, if the queue exists); the fleet balloon controller
// rebalances PRM shares across the runtime's enclaves; and the swapper
// balloons and reclaims on its own thread. Returns whether any epoch
// fired; always false without a controller or a swapper.
func (c *Ctx) Pump() bool {
	fired := false
	if t := c.e.rt.tuner; t != nil && t.Pump(c.th) {
		fired = true
		if c.io != nil {
			// The runtime engine always has a pool and the advice is always
			// a pool mode, so this cannot fail.
			_ = t.ApplyMode(c.th, c.io.q)
		}
	}
	if f := c.e.rt.fleet; f != nil && f.Pump(c.th) {
		fired = true
	}
	if s := c.e.swapper; s != nil && s.Pump(c.th) {
		fired = true
	}
	return fired
}

// IOQueue is a context-bound exit-less I/O submission/completion
// queue: exitio.Queue with the owning context's thread implied. It is
// owned by its context's goroutine.
type IOQueue struct {
	q *exitio.Queue
	c *Ctx
}

// Raw returns the engine-level queue (for use with explicit threads).
func (q *IOQueue) Raw() *exitio.Queue { return q.q }

// Mode returns the queue's current dispatch mode.
func (q *IOQueue) Mode() IOMode { return q.q.Mode() }

// SetMode switches the queue's dispatch mode at a chain boundary:
// in-flight chains settle under the old mode first, and staged ops take
// the new mode at their Submit. Under autotuning, Ctx.Pump does this
// automatically.
func (q *IOQueue) SetMode(m IOMode) error { return q.q.SetMode(q.c.th, m) }

// Push stages op as the start of a new chain.
func (q *IOQueue) Push(op IOOp) { q.q.Push(op) }

// PushTagged stages op with a caller-chosen tag echoed in its CQE.
func (q *IOQueue) PushTagged(op IOOp, tag uint64) { q.q.PushTagged(op, tag) }

// PushLinked stages op linked to the previously staged op: one
// doorbell, ordered execution, failure cancels the rest of the chain.
func (q *IOQueue) PushLinked(op IOOp) { q.q.PushLinked(op) }

// PushLinkedTagged is PushLinked with a completion tag.
func (q *IOQueue) PushLinkedTagged(op IOOp, tag uint64) { q.q.PushLinkedTagged(op, tag) }

// Staged returns the number of staged, not-yet-submitted ops.
func (q *IOQueue) Staged() int { return q.q.Staged() }

// InFlight returns the number of submitted ops not yet reaped.
func (q *IOQueue) InFlight() int { return q.q.InFlight() }

// Submit rings the doorbell for everything staged; completions are
// reaped later (Reap/WaitN) with residual-latency accounting.
func (q *IOQueue) Submit() error { return q.q.Submit(q.c.th) }

// SubmitAndWait submits everything staged and returns all completions
// in submission order.
func (q *IOQueue) SubmitAndWait() ([]CQE, error) { return q.q.SubmitAndWait(q.c.th) }

// Reap returns the completions available right now without blocking.
func (q *IOQueue) Reap() []CQE { return q.q.Reap(q.c.th) }

// WaitN blocks until at least n completions are available (or nothing
// is in flight), then returns all of them.
func (q *IOQueue) WaitN(n int) []CQE { return q.q.WaitN(q.c.th, n) }

// Read accesses memory at a simulated virtual address (enclave-private
// or untrusted, by address range).
func (c *Ctx) Read(vaddr uint64, buf []byte) { c.th.Read(vaddr, buf) }

// Write stores to a simulated virtual address.
func (c *Ctx) Write(vaddr uint64, data []byte) { c.th.Write(vaddr, data) }

// Attach mounts an inter-enclave segment into this enclave's heap and
// returns a context-bound pointer over its contents.
func (c *Ctx) Attach(seg *Segment) (*Ptr, error) {
	p, err := c.e.heap.Attach(c.th, seg)
	if err != nil {
		return nil, err
	}
	return &Ptr{p: p, c: c}, nil
}

// Detach flushes and releases a mounted segment so another enclave can
// attach it. The pointer must not be used afterwards.
func (c *Ctx) Detach(p *Ptr) error {
	return c.e.heap.Detach(c.th, p.p)
}

// Close exits the thread. The Ctx must not be used afterwards.
func (c *Ctx) Close() {
	if c.th.InEnclave() {
		c.th.Exit()
	}
}

// Ptr is a context-bound secure pointer: an SPtr whose accesses are
// charged to its context's thread, giving pointer-like ergonomics for
// the common single-thread case. Use Raw with explicit threads to share
// an allocation across contexts.
type Ptr struct {
	p *SPtr
	c *Ctx
}

// Raw returns the underlying spointer.
func (p *Ptr) Raw() *SPtr { return p.p }

// Size returns the allocation size.
func (p *Ptr) Size() uint64 { return p.p.Size() }

// Offset returns the spointer's current offset.
func (p *Ptr) Offset() uint64 { return p.p.Offset() }

// Linked reports whether the translation is currently cached.
func (p *Ptr) Linked() bool { return p.p.Linked() }

// Read copies from the current offset.
func (p *Ptr) Read(buf []byte) error { return p.p.Read(p.c.th, buf) }

// Write copies to the current offset and marks the page dirty.
func (p *Ptr) Write(data []byte) error { return p.p.Write(p.c.th, data) }

// ReadAt copies from an absolute offset, staying unlinked.
func (p *Ptr) ReadAt(off uint64, buf []byte) error { return p.p.ReadAt(p.c.th, off, buf) }

// WriteAt copies to an absolute offset, staying unlinked.
func (p *Ptr) WriteAt(off uint64, data []byte) error { return p.p.WriteAt(p.c.th, off, data) }

// ReadU64 reads a little-endian uint64 at the current offset.
func (p *Ptr) ReadU64() (uint64, error) { return p.p.ReadU64(p.c.th) }

// WriteU64 writes a little-endian uint64 at the current offset.
func (p *Ptr) WriteU64(v uint64) error { return p.p.WriteU64(p.c.th, v) }

// Advance moves the offset (pointer arithmetic), unlinking on page
// crossings.
func (p *Ptr) Advance(delta int64) error { return p.p.Advance(p.c.th, delta) }

// Seek sets the absolute offset.
func (p *Ptr) Seek(off uint64) error { return p.p.Seek(p.c.th, off) }

// Unlink drops the cached translation and its pin.
func (p *Ptr) Unlink() { p.p.Unlink(p.c.th) }

// Free releases the allocation through the context's own allocator, so
// a service-bound context cannot free another service's (or the enclave
// root's) memory: such a free fails with ErrCrossDomain and leaves the
// allocation untouched.
func (p *Ptr) Free() error { return p.c.allocator().Free(p.c.th, p.p) }
