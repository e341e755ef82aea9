package faceverify

import (
	"fmt"
	"sync"

	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/netsim"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// Placement locates the descriptor database.
type Placement int

// Placements.
const (
	PlaceHost Placement = iota
	PlaceEnclave
	PlaceSUVM
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

// Compute cost model: the LBP transform and chi-square comparison are
// charged per pixel and per descriptor byte respectively (the 8-compare
// LBP kernel vectorizes well; ~2 cycles/pixel keeps the native server
// network-bound at two threads, as the paper's is).
const (
	lbpCyclesPerPixel    = 2
	chiSquareCyclesPerB  = 1
	requestEnvelopeBytes = KeyBytes + ImageBytes + 28
	responseBytes        = 64 + 28
)

// RequestBytes is the wire size of one verification request.
const RequestBytes = requestEnvelopeBytes

// Config describes a verification server.
type Config struct {
	// Identities is the number of enrolled persons (2,000 ≈ the paper's
	// 450 MB database).
	Identities uint64
	// Placement locates the descriptor table.
	Placement Placement
	// Heap is required for PlaceSUVM: a whole *suvm.Heap, or one
	// service's *suvm.Domain when the server is a co-resident tenant of
	// a multi-service enclave.
	Heap suvm.Allocator
	// Synthetic enrolls fabricated descriptors (benchmark mode: loads
	// in milliseconds, same memory behaviour); when false, enrollment
	// runs the real LBP pipeline over rendered images (test mode).
	Synthetic bool
}

// DatabaseBytes returns the approximate table size for n identities.
func DatabaseBytes(n uint64) uint64 {
	return n * (DescriptorBytes + KeyBytes + 64)
}

// Store is the shared descriptor database.
type Store struct {
	plat  *sgx.Platform
	cfg   Config
	table *kv.BlobTable

	// queryCache memoizes query descriptors so benchmarks do not re-run
	// 2.6M-pixel transforms per request on the host machine; the virtual
	// cost is charged per request regardless. Real-pipeline captures are
	// keyed by (id, variant); a synthetic descriptor does not depend on
	// the variant, so synthetic stores key by id alone (variant 0).
	queryMu    sync.Mutex
	queryCache map[[2]uint64][]byte
}

// NewStore builds and enrolls the database; setup pays the unmeasured
// loading costs.
func NewStore(plat *sgx.Platform, setup *sgx.Thread, cfg Config) (*Store, error) {
	if cfg.Identities == 0 {
		return nil, fmt.Errorf("faceverify: at least one identity required")
	}
	size := DatabaseBytes(cfg.Identities) + (1 << 20)
	var mem kv.Mem
	switch cfg.Placement {
	case PlaceHost:
		mem = kv.HostRegion(plat, size)
	case PlaceEnclave:
		if setup.Enclave() == nil {
			return nil, fmt.Errorf("faceverify: enclave placement requires an enclave thread")
		}
		mem = kv.EnclaveRegion(setup.Enclave(), size)
	case PlaceSUVM:
		if cfg.Heap == nil {
			return nil, fmt.Errorf("faceverify: SUVM placement requires a heap")
		}
		r, err := kv.NewSUVMRegion(cfg.Heap, size)
		if err != nil {
			return nil, err
		}
		mem = r
	}
	buckets := uint64(1)
	for buckets < cfg.Identities {
		buckets *= 2
	}
	table, err := kv.NewBlobTable(mem, buckets)
	if err != nil {
		return nil, err
	}
	s := &Store{plat: plat, cfg: cfg, table: table, queryCache: make(map[[2]uint64][]byte)}
	for n := uint64(0); n < cfg.Identities; n++ {
		var desc []byte
		if cfg.Synthetic {
			desc = SynthDescriptor(n)
		} else {
			desc = LBPDescriptor(SynthImage(n, 0))
		}
		if err := table.Put(setup, PersonID(n), desc); err != nil {
			return nil, fmt.Errorf("faceverify: enrolling identity %d: %w", n, err)
		}
	}
	return s, nil
}

// Identities returns the enrolled population size.
func (s *Store) Identities() uint64 { return s.cfg.Identities }

// Lookup fetches the enrolled descriptor of identity id into buf,
// charging the simulated memory costs to th. Returns the descriptor
// length.
func (s *Store) Lookup(th *sgx.Thread, id uint64, buf []byte) (int, error) {
	return s.table.Get(th, PersonID(id), buf)
}

// queryDescriptor returns the descriptor of capture (id, variant),
// computing it once per cache key on the host machine.
func (s *Store) queryDescriptor(id, variant uint64) []byte {
	key := [2]uint64{id, variant}
	if s.cfg.Synthetic {
		key[1] = 0
	}
	s.queryMu.Lock()
	defer s.queryMu.Unlock()
	if d, ok := s.queryCache[key]; ok {
		return d
	}
	var d []byte
	if s.cfg.Synthetic {
		d = SynthDescriptor(id)
	} else {
		d = LBPDescriptor(SynthImage(id, variant))
	}
	if len(s.queryCache) < 4096 {
		s.queryCache[key] = d
	}
	return d
}

// Server is one worker front end (an exit-less socket endpoint) over
// the store.
type Server struct {
	store *Store
	ep    *exitio.Endpoint
	desc  []byte
}

// NewServerIO wraps the store over an existing engine, so servers on
// several threads share one engine and its counters.
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
		ep:    exitio.NewEndpoint(eng.NewGroupQueue(grp), netsim.NewSocket(store.plat, ImageBytes+4096)),
		desc:  make([]byte, DescriptorBytes),
	}
}

// Close releases the socket.
func (s *Server) Close() { s.ep.Close() }

// Verify processes one request end to end: receive the (encrypted)
// image, decrypt it, compute its LBP descriptor, fetch the enrolled
// descriptor for the claimed identity from the database, compare, and
// send the verdict. Returns whether the identity was accepted.
func (s *Server) Verify(th *sgx.Thread, id, variant uint64) (bool, error) {
	m := s.store.plat.Model

	// Receive the request (claimed ID + image). In async mode the
	// previous verdict's deferred send is still staged and the receive
	// links onto it — one doorbell for both.
	if err := s.ep.Recv(th, RequestBytes); err != nil {
		return false, err
	}
	// Pull the image out of the untrusted staging buffer (the enclave
	// reads it while decrypting) and charge the decryption.
	th.Read(s.ep.Socket().UserBuf(), s.desc[:min(len(s.desc), ImageBytes)])
	netsim.CryptoCost(th.T, m, RequestBytes)

	// LBP transform of the query image.
	th.T.Charge(lbpCyclesPerPixel * ImageBytes)
	query := s.store.queryDescriptor(id, variant)

	// Fetch the enrolled descriptor — the 232 KiB read over the large
	// table that Fig 10 stresses.
	n, err := s.store.table.Get(th, PersonID(id), s.desc)
	if err != nil {
		return false, err
	}

	// Compare.
	th.T.Charge(chiSquareCyclesPerB * uint64(n))
	accepted := ChiSquare(query, s.desc[:n]) < VerifyThreshold

	// Respond (deferred in async mode: the send rides the next
	// request's doorbell; Flush pushes out the last one).
	netsim.CryptoCost(th.T, m, responseBytes)
	if err := s.ep.Send(th, responseBytes); err != nil {
		return false, err
	}
	return accepted, nil
}

// Flush completes any deferred response send (async mode); a no-op in
// the synchronous modes.
func (s *Server) Flush(th *sgx.Thread) error { return s.ep.Flush(th) }

// IO returns the server's submission queue (stats, tests).
func (s *Server) IO() *exitio.Queue { return s.ep.Queue() }
