// Package rpc implements Eleos's exit-less system-call service (§3.1 of
// the paper): enclave threads post untrusted function calls to job
// queues in host memory and poll for completion, while a pool of
// untrusted worker threads polls the queues and executes the calls. No
// enclave exit happens on the caller's side — no EEXIT/EENTER latency,
// no TLB flush, no enclave state pollution. The workers' cache footprint
// can further be confined with CAT partitioning (Platform.LLC).
//
// The queue is sharded: each worker owns one lock-free bounded ring. A
// submission's requests go to consecutive rings starting at the
// caller's affinity shard, and a request runs only on the worker whose
// ring it was published to, so every call settles on a known worker.
// Synchronization between trusted and untrusted contexts is by polling,
// because enclave threads cannot use OS futexes — exactly the
// constraint the paper works under. (The workers themselves are host
// threads and may sleep; the wake-on-enqueue path in Pool models that
// futex.)
//
// Submission comes in two flavours: future-returning CallAsync whose
// Wait charges only the latency the caller's own compute did not hide
// (Call is CallAsync waited at once), and CallBatch, which publishes N
// descriptors under a single amortized charge. Both settle by one
// charge rule (Pool.settle).
//
// Every wait for a completion is one loop (Pool.await), whether it is
// a Future.Wait or a CallBatch collection: help, then yield the host
// CPU and check again. Waiting submitters help: a
// caller about to wait for a request no one has started runs it
// itself, on the thread of the worker whose ring holds it, together
// with the requests queued ahead of it on that ring (never those
// behind). Each worker's run lock makes whoever executes on its
// thread exclusive, so the ring order, the worker's clock, TLB and
// cache class, and every charge are exactly what the worker would
// have produced: virtual time is unchanged and only the host
// goroutine supplying the CPU differs. The handoff to the worker
// goroutine is pure simulator cost; the paper's completion poll is
// still charged.
//
// Trust domain: rpc is the boundary object itself. The submission
// surface (Call, CallAsync, CallBatch) runs on enclave threads; the
// worker loop runs on untrusted host threads and carries a per-function
// //eleos:untrusted annotation — eleoslint's trustboundary analyzer
// checks that the worker side never touches EPC contents or calls
// trusted code (the request trampoline req.fn is the one, deliberately
// dynamic, escape hatch). The package is cycle-charged, hence also
// marked deterministic.
//
//eleos:deterministic
package rpc

import (
	"runtime"
	"sync/atomic"
)

// ring is a bounded multi-producer/single-consumer queue. Each cell
// carries a sequence number used to detect whether it is ready for the
// current lap of producers or of the consumer. The one consumer at a
// time is whoever holds the owning worker's run lock.
type ring struct {
	mask  uint64
	cells []cell
	_     [64]byte // keep hot indices on separate cache lines
	enq   atomic.Uint64
	_     [64]byte
	deq   atomic.Uint64
}

type cell struct {
	seq atomic.Uint64
	req *request
}

func newRing(capacity int) *ring {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("rpc: ring capacity must be a positive power of two")
	}
	r := &ring{mask: uint64(capacity - 1), cells: make([]cell, capacity)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue publishes req, spinning if the ring is momentarily full, and
// returns its ticket: the ring position req was published at.
//
//eleos:hotpath budget=0
func (r *ring) enqueue(req *request) uint64 {
	pos := r.enq.Load()
	for {
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.req = req
				c.seq.Store(pos + 1)
				return pos
			}
			pos = r.enq.Load()
		case seq < pos:
			// Full: wait for the consumer to free the cell.
			runtime.Gosched()
			pos = r.enq.Load()
		default:
			pos = r.enq.Load()
		}
	}
}

// dequeueThrough removes the head request if its ticket is at most last
// and its producer has finished publishing it; otherwise it returns
// nil, so a waiting submitter never takes work queued behind its own
// request. The caller must be the ring's single consumer.
//
//eleos:hotpath budget=0
func (r *ring) dequeueThrough(last uint64) *request {
	pos := r.deq.Load()
	c := &r.cells[pos&r.mask]
	if pos > last || c.seq.Load() != pos+1 {
		return nil
	}
	req := c.req
	c.req = nil
	r.deq.Store(pos + 1)
	c.seq.Store(pos + r.mask + 1)
	return req
}

// empty reports whether the ring holds no request, counting one whose
// publish is still in flight as present. Safe from any goroutine.
//
//eleos:hotpath budget=0
func (r *ring) empty() bool {
	// deq first: deq never passes enq, so equal values mean the ring
	// was empty at the moment enq was read.
	return r.deq.Load() == r.enq.Load()
}
