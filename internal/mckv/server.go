package mckv

import (
	"fmt"

	"eleos/internal/exitio"
	"eleos/internal/netsim"
	"eleos/internal/sgx"
)

// Server is one worker front end over a shared Store: an exit-less
// socket endpoint on the engine it was built with, and the request
// crypto. Create one per serving thread.
type Server struct {
	store *Store
	plat  *sgx.Platform
	ep    *exitio.Endpoint
	buf   []byte
}

// NewServerIO wraps store over an existing engine, so several servers
// (one per serving thread) share one engine and its counters.
func NewServerIO(store *Store, eng *exitio.Engine) *Server {
	return NewServerIOGroup(store, eng, nil)
}

// NewServerIOGroup is NewServerIO with the server's queue attributed to
// a counter group — how a store running as one service of a
// multi-service enclave reports its doorbells per service (nil grp
// behaves like NewServerIO).
func NewServerIOGroup(store *Store, eng *exitio.Engine, grp *exitio.Group) *Server {
	return &Server{
		store: store,
		plat:  store.plat,
		ep:    exitio.NewEndpoint(eng.NewGroupQueue(grp), netsim.NewSocket(store.plat, 1<<20)),
		buf:   make([]byte, 1<<20),
	}
}

// Close releases the socket. Any response still deferred in async mode
// is dropped with it; call Flush first when the send matters.
func (s *Server) Close() { s.ep.Close() }

// Store returns the shared store.
func (s *Server) Store() *Store { return s.store }

// IO returns the server's submission queue (stats, tests).
func (s *Server) IO() *exitio.Queue { return s.ep.Queue() }

// GetRequestBytes is the wire size of a GET for a key of klen bytes.
func GetRequestBytes(klen int) int { return 8 + klen + 28 }

// SetRequestBytes is the wire size of a SET carrying klen+vlen payload.
func SetRequestBytes(klen, vlen int) int { return 8 + klen + vlen + 28 }

// Flush completes any deferred response send (async mode); a no-op in
// the synchronous modes. Call it when the request stream pauses or
// ends.
func (s *Server) Flush(th *sgx.Thread) error { return s.ep.Flush(th) }

// ServeGet handles one GET request end to end: receive, decrypt, look
// the key up, and send the encrypted value back. Returns the value
// length.
func (s *Server) ServeGet(th *sgx.Thread, key []byte) (int, error) {
	reqN := GetRequestBytes(len(key))
	sock := s.ep.Socket()
	sock.Deliver(key) // the client's (encrypted) request carries the key
	if err := s.ep.Recv(th, reqN); err != nil {
		return 0, fmt.Errorf("mckv: recv: %w", err)
	}
	th.Read(sock.UserBuf(), s.buf[:len(key)])
	netsim.CryptoCost(th.T, s.plat.Model, reqN)

	vlen, err := s.store.Get(th, key, s.buf)
	if err != nil {
		return 0, err
	}

	respN := vlen + 40 // VALUE header + envelope
	netsim.CryptoCost(th.T, s.plat.Model, respN)
	th.Write(sock.UserBuf(), s.buf[:vlen])
	if err := s.ep.Send(th, respN); err != nil {
		return 0, fmt.Errorf("mckv: send: %w", err)
	}
	return vlen, nil
}

// ServeSet handles one SET request end to end.
func (s *Server) ServeSet(th *sgx.Thread, key, val []byte) error {
	reqN := SetRequestBytes(len(key), len(val))
	sock := s.ep.Socket()
	sock.Deliver(val)
	if err := s.ep.Recv(th, reqN); err != nil {
		return fmt.Errorf("mckv: recv: %w", err)
	}
	th.Read(sock.UserBuf(), s.buf[:min(len(val), len(s.buf))])
	netsim.CryptoCost(th.T, s.plat.Model, reqN)

	if err := s.store.Set(th, key, val); err != nil {
		return err
	}

	netsim.CryptoCost(th.T, s.plat.Model, 8+28) // STORED
	if err := s.ep.Send(th, 8+28); err != nil {
		return fmt.Errorf("mckv: send: %w", err)
	}
	return nil
}
