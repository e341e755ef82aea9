// Package eleos is a Go reproduction of "Eleos: ExitLess OS Services for
// SGX Enclaves" (Orenbach et al., EuroSys 2017): a runtime that removes
// enclave exits from system calls (via an exit-less RPC service running
// in untrusted worker threads) and from secure paging (via SUVM,
// user-managed virtual memory paged entirely inside the enclave).
//
// Because SGX hardware is not assumed, the runtime executes on a
// cycle-accounted simulation of the paper's Skylake SGX machine
// (internal/sgx): enclave exits, EPC paging, TLB flushes, shootdown IPIs
// and memory-encryption costs are all discrete, charged events, and all
// sealing of evicted pages is real AES-GCM. See DESIGN.md.
//
// Quickstart:
//
//	rt, _ := eleos.NewRuntime(eleos.WithRPCWorkers(4))
//	defer rt.Close()
//	encl, _ := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: 32 << 20})
//	ctx := encl.NewContext()
//	p, _ := ctx.Malloc(1 << 30)            // secure memory beyond EPC size
//	p.WriteAt(0, []byte("sealed"))          // paged by SUVM, exit-less
//	ctx.Exitless(func(h *eleos.HostCtx) {   // syscall without leaving
//		h.Syscall(nil)
//	})
//	fut := ctx.Go(func(h *eleos.HostCtx) {  // async: overlap enclave compute
//		h.Syscall(nil)
//	})
//	fut.Wait()                              // charges only the residual latency
package eleos

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/cycles"
	"eleos/internal/exitio"
	"eleos/internal/fleet"
	"eleos/internal/fsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
	"eleos/internal/tune"
)

// Re-exported building blocks. The internal packages carry the full
// implementation; these aliases make their rich APIs reachable through
// the public module path.
type (
	// Model is the architectural cost model of the simulated machine.
	Model = cycles.Model
	// Platform is the simulated SGX machine.
	Platform = sgx.Platform
	// Thread is a simulated hardware thread.
	Thread = sgx.Thread
	// HostCtx is the untrusted execution context handed to exit-less
	// calls and OCALL targets.
	HostCtx = sgx.HostCtx
	// SPtr is a secure active pointer into SUVM memory.
	SPtr = suvm.SPtr
	// Heap is a SUVM instance.
	Heap = suvm.Heap
	// HeapConfig tunes a SUVM heap.
	HeapConfig = suvm.Config
	// HeapStats is a snapshot of SUVM event counters.
	HeapStats = suvm.StatsSnapshot
	// HeapDomain is a named per-service slice of a heap's EPC++ with
	// its own frame pool, evictor and counters (Service.Domain).
	HeapDomain = suvm.Domain
	// DomainStats is one domain's named counter snapshot inside
	// HeapStats.Domains.
	DomainStats = suvm.DomainStatsSnapshot
	// Segment is inter-enclave shared secure memory (ownership moves
	// between enclaves by Detach/Attach, without re-encrypting data).
	Segment = suvm.Segment
	// EvictionPolicy selects EPC++ eviction victims (§3.2.4: the
	// application controls the eviction policy).
	EvictionPolicy = suvm.EvictionPolicy
	// IOEngine is the exit-less I/O submission/completion engine
	// (internal/exitio): typed ops, linked chains, pluggable dispatch.
	IOEngine = exitio.Engine
	// IOMode selects how submitted I/O chains reach the OS.
	IOMode = exitio.Mode
	// IOStats is a snapshot of engine activity (doorbells, chains,
	// linked ops, reap-stall cycles).
	IOStats = exitio.Stats
	// IOGroup is a per-service counter group over the shared I/O
	// engine: queues opened through Service contexts attribute their
	// doorbells, chains and reap stalls to it.
	IOGroup = exitio.Group
	// IOOp is one typed exit-less I/O op descriptor.
	IOOp = exitio.Op
	// CQE is one typed I/O completion.
	CQE = exitio.CQE
	// FS is the simulated untrusted filesystem served through exitio's
	// file ops (Open/Pread/Pwrite/Fsync/Close).
	FS = fsim.FS
	// IORecv, IOSend, IOOpen, IOPread, IOPwrite, IOFsync and IOClose
	// are the op descriptors accepted by IOQueue.Push.
	IORecv   = exitio.Recv
	IOSend   = exitio.Send
	IOOpen   = exitio.Open
	IOPread  = exitio.Pread
	IOPwrite = exitio.Pwrite
	IOFsync  = exitio.Fsync
	IOClose  = exitio.Close
	// RPCStats is a snapshot of the exit-less RPC pool's counters.
	RPCStats = rpc.Stats
	// Tuner is the self-tuning controller (internal/tune): the feedback
	// loop behind WithAutoTune / WithWorkerBounds.
	Tuner = tune.Controller
	// TunePolicy configures the controller: epoch length, worker
	// bounds, target utilization and grow/shrink hysteresis.
	TunePolicy = tune.Policy
	// TuneStats is a snapshot of controller activity.
	TuneStats = tune.Stats
	// TuneAdvice is the controller's current submission recommendation.
	TuneAdvice = tune.Advice
	// TuneDecision is one recorded epoch decision.
	TuneDecision = tune.Decision
	// FleetController is the fleet-scale adaptive EPC++ balloon
	// controller (internal/fleet): the feedback loop behind
	// WithFleetBalloon that rebalances PRM shares across enclaves from
	// live demand instead of the driver's static even split.
	FleetController = fleet.Controller
	// FleetPolicy configures the controller's epoch length; its share
	// floor, deadband, demand gate and hysteresis are fixed.
	FleetPolicy = fleet.Policy
	// FleetStats is a snapshot of fleet controller activity.
	FleetStats = fleet.Stats
	// FleetTenantStats is one tenant's slice of FleetStats.
	FleetTenantStats = fleet.TenantStats
	// FleetDecision is one recorded fleet epoch decision, and
	// FleetTenantDecision one tenant's slice of it.
	FleetDecision       = fleet.Decision
	FleetTenantDecision = fleet.TenantDecision
)

// Exit-less I/O dispatch modes.
const (
	IONative   = exitio.ModeDirect
	IOOCall    = exitio.ModeOCall
	IORPCSync  = exitio.ModeRPCSync
	IORPCAsync = exitio.ModeRPCAsync
)

// Available EPC++ eviction policies.
const (
	PolicyClock  = suvm.PolicyClock
	PolicyFIFO   = suvm.PolicyFIFO
	PolicyRandom = suvm.PolicyRandom
)

// Runtime owns one simulated machine and its untrusted Eleos runtime.
type Runtime struct {
	plat  *sgx.Platform
	pool  *rpc.Pool
	io    *exitio.Engine
	tuner *tune.Controller
	fleet *fleet.Controller

	// mu guards the enclave registry only; it is never held across
	// calls into the subsystems.
	//
	//eleos:lockorder 3
	mu       sync.Mutex
	enclaves []*Enclave
}

// NewRuntime builds the machine and starts the RPC worker pool. The
// options are applied in order over the paper's defaults: two RPC
// workers and the 25%/75% CAT split.
//
//	rt, _ := eleos.NewRuntime()                             // the paper's defaults
//	rt, _ := eleos.NewRuntime(eleos.WithRPCWorkers(4))      // a larger fixed pool
//	rt, _ := eleos.NewRuntime(eleos.WithWorkerBounds(1, 8)) // self-tuning
//
// An option value out of range makes NewRuntime fail with an error
// that names the option.
func NewRuntime(opts ...Option) (*Runtime, error) {
	cfg := config{catWays: 4}
	for _, o := range opts {
		o(&cfg)
	}
	switch {
	case cfg.workers != 0 && cfg.autoTune:
		return nil, ErrConflictingOptions
	case cfg.workers < 0:
		return nil, fmt.Errorf("eleos: WithRPCWorkers(%d): negative worker count", cfg.workers)
	case cfg.ring < 0:
		return nil, fmt.Errorf("eleos: WithRPCRing(%d): negative ring capacity", cfg.ring)
	}
	workers, ring := cmp.Or(cfg.workers, 2), cmp.Or(cfg.ring, 256)
	if cfg.autoTune {
		// A self-tuning pool starts at the lower bound and earns its
		// workers from the load.
		workers = cmp.Or(cfg.tune.MinWorkers, 1)
	}
	plat, err := sgx.NewPlatform(cfg.machine)
	if err != nil {
		return nil, fmt.Errorf("eleos: building platform: %w", err)
	}
	if ways := plat.LLC.Ways(); cfg.catWays < 0 || cfg.catWays >= ways {
		return nil, fmt.Errorf("eleos: WithCATWays(%d): want 0..%d on a %d-way LLC", cfg.catWays, ways-1, ways)
	}
	if cfg.catWays > 0 {
		plat.LLC.EnablePartitioning(cfg.catWays)
	}
	// Everything that can fail is built before the workers start, so a
	// failure leaves nothing running.
	pool := rpc.NewPool(plat, workers, ring)
	io, err := exitio.NewEngine(exitio.ModeRPCAsync, pool)
	if err != nil {
		return nil, fmt.Errorf("eleos: building I/O engine: %w", err)
	}
	rt := &Runtime{plat: plat, pool: pool, io: io}
	if cfg.autoTune {
		if rt.tuner, err = tune.New(pool, io, cfg.tune); err != nil {
			return nil, fmt.Errorf("eleos: building autotuner: %w", err)
		}
	}
	if cfg.balloon {
		if rt.fleet, err = fleet.New(plat.Driver, cfg.fleet); err != nil {
			return nil, fmt.Errorf("eleos: building fleet controller: %w", err)
		}
	}
	pool.Start()
	return rt, nil
}

// Close stops the RPC workers.
func (r *Runtime) Close() { r.pool.Stop() }

// Platform exposes the simulated machine (cost model, LLC, driver).
func (r *Runtime) Platform() *sgx.Platform { return r.plat }

// Pool exposes the RPC worker pool. For observability prefer
// Runtime.Stats, which snapshots the pool together with the rest of the
// runtime.
func (r *Runtime) Pool() *rpc.Pool { return r.pool }

// Tuner exposes the self-tuning controller, or nil when the runtime was
// built without WithAutoTune / WithWorkerBounds. Serving loops normally
// drive it through Ctx.Pump rather than directly.
func (r *Runtime) Tuner() *Tuner { return r.tuner }

// Fleet exposes the fleet balloon controller, or nil when the runtime
// was built without WithFleetBalloon. Serving loops normally drive it
// through Ctx.Pump rather than directly.
func (r *Runtime) Fleet() *FleetController { return r.fleet }

// IOEngine exposes the runtime's shared exit-less I/O engine. It
// dispatches in rpc-async mode over the runtime's worker pool; Ctx.IO
// gives each context a queue on it, and NewIOEngine builds independent
// engines in other modes.
func (r *Runtime) IOEngine() *IOEngine { return r.io }

// NewIOEngine builds an additional I/O engine in the given dispatch
// mode over the runtime's worker pool (for comparing modes on one
// machine).
func (r *Runtime) NewIOEngine(mode IOMode) (*IOEngine, error) {
	return exitio.NewEngine(mode, r.pool)
}

// NewFS creates a simulated untrusted filesystem on the runtime's
// machine, to be driven through the exitio file ops.
func (r *Runtime) NewFS() *FS { return fsim.NewFS(r.plat) }

// EnclaveConfig describes one enclave with its SUVM heap.
type EnclaveConfig struct {
	// PageCacheBytes sizes EPC++ (required). Keep it under the PRM
	// share reported by the driver, run the swapper to balloon it
	// against driver pressure, or build the runtime with
	// WithFleetBalloon to have the fleet controller size it from demand.
	PageCacheBytes uint64
	// Heap carries further SUVM tuning (page size, eviction policy);
	// PageCacheBytes above overrides its field of the same name.
	Heap suvm.Config
	// Swapper runs the §3.2.3 swapper on virtual time: once per epoch
	// of a pumping context's clock, Ctx.Pump balloons EPC++ against the
	// driver-reported PRM share and tops up the free frame pool, on the
	// swapper's own thread.
	Swapper bool
}

// Enclave is a simulated enclave with an attached SUVM heap. It hosts
// one implicit root tenant (NewContext, Ctx.Malloc against the whole
// heap) and, optionally, N isolated carved services (NewService) that
// share its EPC++ and the runtime's single I/O engine.
type Enclave struct {
	rt      *Runtime
	encl    *sgx.Enclave
	heap    *suvm.Heap
	swapper *suvm.Swapper // nil unless EnclaveConfig.Swapper

	// services is the carved-service registry, guarded by rt.mu like the
	// enclave registry itself.
	services []*Service

	destroyed atomic.Bool
}

// NewEnclave creates an enclave and its SUVM heap. The heap's frame
// pool is pinned using a temporary setup thread.
func (r *Runtime) NewEnclave(cfg EnclaveConfig) (*Enclave, error) {
	if cfg.PageCacheBytes != 0 {
		cfg.Heap.PageCacheBytes = cfg.PageCacheBytes
	}
	encl, err := r.plat.NewEnclave()
	if err != nil {
		return nil, err
	}
	setup := encl.NewThread()
	setup.Enter()
	heap, err := suvm.New(encl, setup, cfg.Heap)
	setup.Exit()
	if err != nil {
		encl.Destroy()
		return nil, err
	}
	e := &Enclave{rt: r, encl: encl, heap: heap}
	if cfg.Swapper {
		e.swapper = heap.NewSwapper()
	}
	r.mu.Lock()
	r.enclaves = append(r.enclaves, e)
	r.mu.Unlock()
	if r.fleet != nil {
		r.fleet.Register(heap)
	}
	return e, nil
}

// Destroy waits for in-flight SUVM faults to drain and tears the
// enclave down (all carved services with it). Idempotent and safe to
// race with itself: exactly one caller performs the teardown, later and
// concurrent calls return immediately.
func (e *Enclave) Destroy() {
	if !e.destroyed.CompareAndSwap(false, true) {
		return
	}
	e.rt.mu.Lock()
	for i, other := range e.rt.enclaves {
		if other == e {
			e.rt.enclaves = append(e.rt.enclaves[:i], e.rt.enclaves[i+1:]...)
			break
		}
	}
	e.rt.mu.Unlock()
	if e.rt.fleet != nil {
		e.rt.fleet.Unregister(e.heap)
	}
	// Let faults that already entered the pipeline (any service's or the
	// root's) finish against live EPC++ before the pages are torn down.
	e.heap.Quiesce()
	e.encl.Destroy()
}

// Raw exposes the underlying simulated enclave.
func (e *Enclave) Raw() *sgx.Enclave { return e.encl }

// Heap exposes the enclave's SUVM heap.
func (e *Enclave) Heap() *suvm.Heap { return e.heap }

// NewSegment allocates inter-enclave shared secure memory on the
// runtime's machine; mount it with Ctx.Attach. pageSize must match the
// EPC++ page size of every attaching enclave (4096 unless tuned).
func (r *Runtime) NewSegment(size uint64, pageSize int) (*Segment, error) {
	return suvm.NewSegment(r.plat, size, pageSize)
}
