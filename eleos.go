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
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// Swapper is the EPC++ swapper thread; in manual mode drive it with
	// TickNow for deterministic runs.
	Swapper = suvm.Swapper
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
	// TunePolicy configures the controller (epoch length, worker
	// bounds, thresholds, hysteresis).
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
	// FleetPolicy configures the controller (epoch length, share floor,
	// hysteresis, deadband).
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

// Config describes a Runtime: the simulated machine plus the untrusted
// Eleos runtime (RPC workers, cache partitioning). New code should
// prefer the functional options (WithRPCWorkers, WithCATWays,
// WithMachine, ...); Config remains as the compatibility layer and is
// itself an Option.
type Config struct {
	// Machine configures the simulated platform; zero values select the
	// paper's testbed (93 MiB usable PRM, 8 MiB LLC).
	Machine sgx.Config
	// RPCWorkers sizes the untrusted worker pool (default 2).
	RPCWorkers int
	// CATWays reserves this many LLC ways for the RPC workers via cache
	// allocation technology, protecting the enclave's share from I/O
	// buffer pollution. 0 disables partitioning; the paper uses 4 of 16
	// (a 25%/75% split).
	CATWays int
	// RPCRing is the total RPC queue capacity, split across the worker
	// ring shards (default 256).
	RPCRing int
	// AutoTune enables the self-tuning controller: the pool starts at
	// Tune.MinWorkers, RPCWorkers is ignored, and serving loops drive
	// adaptation via Ctx.Pump. Prefer WithWorkerBounds / WithAutoTune.
	AutoTune bool
	// Tune is the controller policy when AutoTune is set; zero fields
	// take the tune package defaults.
	Tune TunePolicy
	// FleetBalloon enables the fleet-scale adaptive EPC++ balloon
	// controller: every enclave the runtime creates is registered as a
	// tenant, and the controller rebalances PRM shares from live demand
	// as serving loops drive Ctx.Pump. Prefer WithFleetBalloon.
	FleetBalloon bool
	// Fleet is the controller policy when FleetBalloon is set; zero
	// fields take the fleet package defaults.
	Fleet FleetPolicy

	// Option bookkeeping for the mutual-exclusion check: which of the
	// conflicting knobs the caller actually spelled out.
	fixedWorkers  bool
	tuneRequested bool
}

// DefaultConfig returns the paper's configuration: two RPC workers and
// the 25%/75% CAT split.
func DefaultConfig() Config {
	return Config{RPCWorkers: 2, CATWays: 4}
}

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

// NewRuntime builds the machine and starts the RPC worker pool. With no
// arguments it uses DefaultConfig; otherwise the options are applied in
// order. Passing a Config value (itself an Option) replaces the whole
// configuration, preserving the pre-options call sites:
//
//	rt, _ := eleos.NewRuntime(eleos.DefaultConfig())        // classic
//	rt, _ := eleos.NewRuntime(eleos.WithRPCWorkers(4))      // options
//	rt, _ := eleos.NewRuntime(eleos.WithWorkerBounds(1, 8)) // self-tuning
func NewRuntime(opts ...Option) (*Runtime, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o.applyOption(&cfg)
	}
	if cfg.fixedWorkers && cfg.tuneRequested {
		return nil, ErrConflictingOptions
	}
	if cfg.RPCWorkers == 0 {
		cfg.RPCWorkers = 2
	}
	if cfg.RPCRing == 0 {
		cfg.RPCRing = 256
	}
	workers := cfg.RPCWorkers
	if cfg.AutoTune {
		// A self-tuning pool starts at the lower bound and earns its
		// workers from the load.
		workers = cfg.Tune.MinWorkers
		if workers == 0 {
			workers = 1
		}
	}
	plat, err := sgx.NewPlatform(cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("eleos: building platform: %w", err)
	}
	if cfg.CATWays > 0 {
		plat.LLC.EnablePartitioning(cfg.CATWays)
	}
	pool := rpc.NewPool(plat, workers, cfg.RPCRing)
	pool.Start()
	io, err := exitio.NewEngine(exitio.ModeRPCAsync, pool)
	if err != nil {
		pool.Stop()
		return nil, fmt.Errorf("eleos: building I/O engine: %w", err)
	}
	rt := &Runtime{plat: plat, pool: pool, io: io}
	if cfg.AutoTune {
		tuner, err := tune.New(pool, io, cfg.Tune)
		if err != nil {
			pool.Stop()
			return nil, fmt.Errorf("eleos: building autotuner: %w", err)
		}
		rt.tuner = tuner
	}
	if cfg.FleetBalloon {
		fc, err := fleet.New(plat.Driver, cfg.Fleet)
		if err != nil {
			pool.Stop()
			return nil, fmt.Errorf("eleos: building fleet controller: %w", err)
		}
		rt.fleet = fc
	}
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
	// share reported by the driver, run a swapper (SwapperInterval /
	// ManualSwapper) to balloon it against driver pressure, or build
	// the runtime with WithFleetBalloon to have the fleet controller
	// size it from demand.
	PageCacheBytes uint64
	// Heap carries further SUVM tuning; PageCacheBytes above overrides
	// its field of the same name.
	Heap suvm.Config
	// SwapperInterval, when non-zero, starts the background swapper
	// thread that re-balloons EPC++ against driver-reported PRM
	// pressure at this period.
	SwapperInterval time.Duration
	// ManualSwapper creates the swapper in manual mode instead: no
	// background goroutine, ticks happen only via Enclave.Swapper().
	// TickNow() — the deterministic choice for benchmarks and tests.
	// Mutually exclusive with SwapperInterval (manual wins).
	ManualSwapper bool
}

// Enclave is a simulated enclave with an attached SUVM heap. It hosts
// one implicit root tenant (NewContext, Ctx.Malloc against the whole
// heap) and, optionally, N isolated carved services (NewService) that
// share its EPC++ and the runtime's single I/O engine.
type Enclave struct {
	rt      *Runtime
	encl    *sgx.Enclave
	heap    *suvm.Heap
	swapper *suvm.Swapper

	// services is the carved-service registry, guarded by rt.mu like the
	// enclave registry itself.
	services []*Service

	destroyed atomic.Bool
}

// NewEnclave creates an enclave and its SUVM heap. The heap's frame
// pool is pinned using a temporary setup thread. Enclave options are
// applied over cfg in order:
//
//	encl, _ := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: 32 << 20},
//		eleos.WithEvictionPolicy(eleos.PolicyFIFO),
//		eleos.WithManualSwapper(),
//	)
func (r *Runtime) NewEnclave(cfg EnclaveConfig, opts ...EnclaveOption) (*Enclave, error) {
	for _, o := range opts {
		o.applyEnclaveOption(&cfg)
	}
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
	switch {
	case cfg.ManualSwapper:
		e.swapper = heap.NewSwapper()
	case cfg.SwapperInterval > 0:
		e.swapper = heap.StartSwapper(cfg.SwapperInterval)
	}
	r.mu.Lock()
	r.enclaves = append(r.enclaves, e)
	r.mu.Unlock()
	if r.tuner != nil {
		r.tuner.WatchHeap(heap)
	}
	if r.fleet != nil {
		r.fleet.Register(heap)
	}
	return e, nil
}

// Destroy stops the swapper, waits for in-flight SUVM faults to drain,
// and tears the enclave down (all carved services with it). Idempotent
// and safe to race with itself: exactly one caller performs the
// teardown, later and concurrent calls return immediately.
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
	if e.swapper != nil {
		e.swapper.Stop()
		e.swapper = nil
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

// Swapper exposes the enclave's EPC++ swapper (nil unless the enclave
// was configured with ManualSwapper or SwapperInterval). In manual mode
// call TickNow to balloon and reclaim at deterministic points.
func (e *Enclave) Swapper() *Swapper { return e.swapper }

// NewSegment allocates inter-enclave shared secure memory on the
// runtime's machine; mount it with Ctx.Attach. pageSize must match the
// EPC++ page size of every attaching enclave (4096 unless tuned).
func (r *Runtime) NewSegment(size uint64, pageSize int) (*Segment, error) {
	return suvm.NewSegment(r.plat, size, pageSize)
}
