package exitio

import (
	"eleos/internal/netsim"
	"eleos/internal/sgx"
)

// Endpoint is one exit-less socket: a netsim.Socket plus the Queue its
// receives and sends are submitted on. It is the one request/response
// path every server and daemon uses. In ModeRPCAsync a send is deferred
// and the next receive links onto it, so SEND(i) and RECV(i+1) cross
// the boundary on one doorbell; in every other mode each op is
// submitted and waited for at once. The choice reads the queue's live
// mode, so a Queue.SetMode (the tuner's advice) takes effect at the
// next send. Like its Queue and Socket, an Endpoint belongs to one
// serving thread.
type Endpoint struct {
	q    *Queue
	sock *netsim.Socket
	// recv and send are the endpoint's op descriptors, reused by every
	// call and pushed as pointers, which box into Op without
	// allocating. Each is staged at most once at a time: Recv waits for
	// everything it submits, and Send flushes an earlier deferred send
	// before reusing its descriptor.
	recv Recv
	send Send
}

// NewEndpoint binds sock to q. The endpoint owns both: Close releases
// the socket.
func NewEndpoint(q *Queue, sock *netsim.Socket) *Endpoint {
	return &Endpoint{q: q, sock: sock, recv: Recv{Sock: sock}, send: Send{Sock: sock}}
}

// Socket returns the endpoint's socket (Deliver and UserBuf).
func (e *Endpoint) Socket() *netsim.Socket { return e.sock }

// Queue returns the endpoint's submission queue (mode, stats, tests).
func (e *Endpoint) Queue() *Queue { return e.q }

// Recv receives n wire bytes into the socket's staging buffer, linked
// onto a deferred send if one is staged, and waits for the chain.
//
//eleos:hotpath budget=0
func (e *Endpoint) Recv(th *sgx.Thread, n int) error {
	e.recv.N = n
	e.q.PushLinked(&e.recv)
	return e.Flush(th)
}

// Send transmits n wire bytes from the socket's staging buffer. In
// ModeRPCAsync it only stages the op, for the next Recv (or Flush) to
// carry; otherwise it submits and waits.
//
//eleos:hotpath budget=0
func (e *Endpoint) Send(th *sgx.Thread, n int) error {
	if e.q.Staged() > 0 {
		if err := e.Flush(th); err != nil {
			return err
		}
	}
	e.send.N = n
	e.q.Push(&e.send)
	if e.q.Mode() == ModeRPCAsync {
		return nil
	}
	return e.Flush(th)
}

// Flush submits everything staged (a deferred send) and waits for it;
// with nothing staged it charges nothing. Call it when the request
// stream pauses or ends.
//
//eleos:hotpath budget=0
func (e *Endpoint) Flush(th *sgx.Thread) error {
	cqes, err := e.q.SubmitAndWait(th)
	if err != nil {
		return err
	}
	return FirstErr(cqes)
}

// Close drops a deferred send that was never flushed and releases the
// socket.
func (e *Endpoint) Close() {
	e.q.staged = e.q.staged[:0]
	e.sock.Close()
}
