// Package pserver implements the parameter server of the paper's §2: a
// key-value store of 8-byte keys and 8-byte values serving in-place
// updates from network clients, encrypted end to end. It is the workload
// behind Fig 1, Fig 2a/2b and Fig 6a/6b/6c, parameterized exactly along
// the axes those figures sweep: data size, hash-table layout (open
// addressing vs chaining), data placement (untrusted memory, EPC, or
// SUVM) and system-call mechanism (native, OCALL, or Eleos RPC).
//
// Trust domain: trusted — the server's request loop is enclave code
// (the network path crosses the boundary via netsim and rpc, which
// carry their own annotations).
//
//eleos:trusted
//eleos:deterministic
//eleos:service pserver
package pserver

import (
	"fmt"

	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/netsim"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// Placement selects where the parameter table lives.
type Placement int

// Placements.
const (
	PlaceHost    Placement = iota // untrusted memory (baseline runs)
	PlaceEnclave                  // enclave heap, hardware-paged EPC
	PlaceSUVM                     // Eleos SUVM
)

func (p Placement) String() string {
	switch p {
	case PlaceHost:
		return "host"
	case PlaceEnclave:
		return "epc"
	default:
		return "suvm"
	}
}

// Config describes one parameter-server instance.
type Config struct {
	// DataBytes is the key+value payload (entries = DataBytes/16).
	DataBytes uint64
	// Layout is the hash-table collision strategy.
	Layout kv.Layout
	// Placement locates the table.
	Placement Placement
	// Heap is required for PlaceSUVM: a whole *suvm.Heap, or one
	// service's *suvm.Domain when the server is a co-resident tenant of
	// a multi-service enclave.
	Heap suvm.Allocator
	// Engine is the exit-less I/O engine the server's socket submits
	// through (required): its dispatch mode selects the recv/send
	// mechanism, and several servers may share one engine and its
	// doorbell counters.
	Engine *exitio.Engine
	// Group, when non-nil, attributes the server's queue activity to a
	// per-service counter group on the shared Engine.
	Group *exitio.Group
	// Encrypted selects whether request/response crypto costs are
	// charged (the paper encrypts all traffic; on by default in the
	// harness, off in some unit tests).
	Encrypted bool
}

// Server is one parameter server worker: a table plus an exit-less
// socket endpoint. For multi-threaded experiments create one Server
// per thread over a shared table (the paper shards requests by
// connection).
type Server struct {
	cfg     Config
	plat    *sgx.Platform
	table   *kv.FixedTable
	ep      *exitio.Endpoint
	entries uint64
	reqBuf  []byte
}

// Entries returns the number of key-value pairs loaded.
func (s *Server) Entries() uint64 { return s.entries }

// Table exposes the underlying table (tests and the harness).
func (s *Server) Table() *kv.FixedTable { return s.table }

// RequestBytes returns the wire size of a request updating nkeys keys:
// a 4-byte count plus key/delta pairs plus the AES-GCM envelope.
func RequestBytes(nkeys int) int { return 4 + 16*nkeys + 28 }

// ResponseBytes is the wire size of the acknowledgement.
const ResponseBytes = 16 + 28

// New builds and loads a parameter server. setup must be an enclave
// thread (entered) for enclave/SUVM placements, or any thread for host
// placement; loading costs are charged to it and are not part of any
// measurement (reset counters afterwards).
func New(plat *sgx.Platform, setup *sgx.Thread, cfg Config) (*Server, error) {
	entries := cfg.DataBytes / 16
	if entries == 0 {
		return nil, fmt.Errorf("pserver: data size %d too small", cfg.DataBytes)
	}
	if cfg.Placement == PlaceSUVM && cfg.Heap == nil {
		return nil, fmt.Errorf("pserver: SUVM placement requires a heap")
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("pserver: an exit-less I/O engine is required")
	}
	buckets := uint64(1)
	for buckets < 2*entries {
		buckets *= 2
	}
	memSize := kv.FixedTableMemSize(cfg.Layout, buckets, entries)

	var mem kv.Mem
	switch cfg.Placement {
	case PlaceHost:
		mem = kv.HostRegion(plat, memSize)
	case PlaceEnclave:
		if setup.Enclave() == nil {
			return nil, fmt.Errorf("pserver: enclave placement requires an enclave thread")
		}
		mem = kv.EnclaveRegion(setup.Enclave(), memSize)
	case PlaceSUVM:
		r, err := kv.NewSUVMRegion(cfg.Heap, memSize)
		if err != nil {
			return nil, err
		}
		mem = r
	}
	table, err := kv.NewFixedTable(mem, cfg.Layout, buckets, entries)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		plat:    plat,
		table:   table,
		ep:      exitio.NewEndpoint(cfg.Engine.NewGroupQueue(cfg.Group), netsim.NewSocket(plat, 64<<10)),
		entries: entries,
		reqBuf:  make([]byte, 64<<10),
	}
	if err := s.load(setup, mem, buckets); err != nil {
		return nil, err
	}
	return s, nil
}

// load populates keys 1..entries with value=key. Bulk layout is computed
// in plain Go and streamed into the region in large writes, because
// element-by-element insertion of hundreds of megabytes through the
// simulated memory system would dominate host wall-clock time without
// changing any measured number (loading is never measured).
func (s *Server) load(setup *sgx.Thread, mem kv.Mem, buckets uint64) error {
	img, err := kv.BuildFixedImage(s.cfg.Layout, buckets, s.entries)
	if err != nil {
		return err
	}
	const chunk = 1 << 20
	for off := 0; off < len(img); off += chunk {
		end := off + chunk
		if end > len(img) {
			end = len(img)
		}
		if err := mem.Write(setup, uint64(off), img[off:end]); err != nil {
			return err
		}
	}
	s.table.SetLoaded(s.entries)
	return nil
}

// Close releases the server's socket buffers.
func (s *Server) Close() { s.ep.Close() }

// ServeRequest processes one client request updating the given keys:
// receive (via the configured mechanism), decrypt, apply the updates,
// encrypt and send the response. th must match the configuration: an
// entered enclave thread for OCALL/RPC modes, a host thread for native.
func (s *Server) ServeRequest(th *sgx.Thread, keys []uint64) error {
	n := RequestBytes(len(keys))
	m := s.plat.Model

	// Stage the request as the remote client + NIC would.
	payload := s.reqBuf[:n]
	putLeU32(payload[0:4], uint32(len(keys)))
	for i, k := range keys {
		putLeU64(payload[4+16*i:], k)
		putLeU64(payload[12+16*i:], 1) // delta
	}
	sock := s.ep.Socket()
	sock.Deliver(payload)

	// recv() — in async mode the previous request's deferred response
	// send is still staged, and the receive links onto it: one doorbell
	// carries SEND(i) and RECV(i+1).
	if err := s.ep.Recv(th, n); err != nil {
		return fmt.Errorf("pserver: recv: %w", err)
	}

	// Pull the payload out of the untrusted staging buffer and decrypt.
	th.Read(sock.UserBuf(), payload)
	if s.cfg.Encrypted {
		netsim.CryptoCost(th.T, m, n)
	}

	// Apply the updates.
	nk := int(leU32(payload[0:4]))
	for i := 0; i < nk; i++ {
		key := leU64(payload[4+16*i:])
		delta := leU64(payload[12+16*i:])
		if err := s.table.Add(th, key, delta); err != nil {
			return fmt.Errorf("pserver: update key %d: %w", key, err)
		}
	}

	// Respond.
	if s.cfg.Encrypted {
		netsim.CryptoCost(th.T, m, ResponseBytes)
	}
	var ack [16]byte
	th.Write(sock.UserBuf(), ack[:])
	// Deferred in async mode: the send rides the next request's doorbell
	// (Flush pushes out the last one).
	if err := s.ep.Send(th, ResponseBytes); err != nil {
		return fmt.Errorf("pserver: send: %w", err)
	}
	return nil
}

// Flush completes any deferred response send (async mode); a no-op in
// the synchronous modes.
func (s *Server) Flush(th *sgx.Thread) error {
	if err := s.ep.Flush(th); err != nil {
		return fmt.Errorf("pserver: flush: %w", err)
	}
	return nil
}

// IO returns the server's submission queue (stats, tests).
func (s *Server) IO() *exitio.Queue { return s.ep.Queue() }

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}
