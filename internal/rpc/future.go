package rpc

import "eleos/internal/sgx"

// Future is the handle to one asynchronous exit-less call (§3.1: the
// enclave thread receives a future and keeps computing while the
// untrusted worker runs the call). The accounting mirrors that overlap:
// CallAsync charged only the enqueue; Wait charges the residual part of
// the worker's latency that the caller's compute since submission did
// not already hide, plus the completion poll.
//
// A Future belongs to the thread that submitted it; Wait must be called
// with that same thread (its clock anchors the overlap computation).
// Wait is idempotent, and after the first Wait the underlying request is
// recycled.
type Future struct {
	pool   *Pool
	req    *request
	waited bool
}

// Done reports whether the delegated call has completed, without
// blocking and without charging the caller.
//
//eleos:hotpath budget=0
func (f *Future) Done() bool {
	return f.waited || f.req.done.Load() != 0
}

// Wait polls until the call completes, running it itself when its
// worker is idle (Pool.await), and settles the caller's accounting:
// cycles the caller burned since submission overlap with the worker's
// execution for free, and only the residual — if any — is charged, as
// stall time outside the enclave, plus the completion poll.
//
//eleos:hotpath budget=0
func (f *Future) Wait(caller *sgx.Thread) {
	if f.waited {
		return
	}
	req := f.req
	f.pool.await(req)
	f.pool.settle(caller, req.submitStamp, req.workCycles, req.workCycles)
	f.waited = true
	f.req = nil
	f.pool.putReq(req)
}
