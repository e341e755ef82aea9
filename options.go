package eleos

import (
	"time"

	"eleos/internal/sgx"
)

// MachineConfig configures the simulated SGX platform (PRM size, LLC
// geometry, cost model); the zero value selects the paper's testbed.
type MachineConfig = sgx.Config

// Option configures a Runtime. Options are applied in order over
// DefaultConfig, so later options win. A Config value is itself an
// Option (it replaces the whole configuration), which keeps the
// original NewRuntime(cfg Config) call sites compiling unchanged:
//
//	rt, _ := eleos.NewRuntime(
//		eleos.WithRPCWorkers(4),
//		eleos.WithCATWays(4),
//	)
type Option interface {
	applyOption(*Config)
}

// applyOption makes Config an Option: passing a Config replaces the
// entire configuration, exactly like the pre-options NewRuntime(cfg).
func (c Config) applyOption(dst *Config) { *dst = c }

type optionFunc func(*Config)

func (f optionFunc) applyOption(c *Config) { f(c) }

// WithRPCWorkers sizes the untrusted RPC worker pool (and with it the
// number of ring shards) as a fixed pool: autotuning stays disabled and
// the pool never changes size. Mutually exclusive with WithWorkerBounds
// and WithAutoTune — combining them makes NewRuntime fail with
// ErrConflictingOptions, in either order.
func WithRPCWorkers(n int) Option {
	return optionFunc(func(c *Config) {
		c.RPCWorkers = n
		c.AutoTune = false
		c.fixedWorkers = true
	})
}

// WithWorkerBounds enables the self-tuning controller with the default
// policy and the given worker-pool bounds: the pool starts at min and
// the controller grows and shrinks it inside [min, max] as the offered
// load shifts. Mutually exclusive with WithRPCWorkers.
func WithWorkerBounds(min, max int) Option {
	return optionFunc(func(c *Config) {
		c.AutoTune = true
		c.Tune.MinWorkers = min
		c.Tune.MaxWorkers = max
		c.tuneRequested = true
	})
}

// WithAutoTune enables the self-tuning controller with an explicit
// policy (zero fields take the tune defaults; the zero policy is
// exactly WithWorkerBounds(1, 8)). Mutually exclusive with
// WithRPCWorkers.
func WithAutoTune(p TunePolicy) Option {
	return optionFunc(func(c *Config) {
		c.AutoTune = true
		c.Tune = p
		c.tuneRequested = true
	})
}

// WithFleetBalloon enables the fleet-scale adaptive EPC++ balloon
// controller: every enclave the runtime creates becomes a tenant, and
// as serving loops drive Ctx.Pump the controller rebalances PRM shares
// from each heap's live demand signals — installing them through the
// driver's SetEPCShares ioctl and ballooning the heaps to match —
// instead of leaving every enclave chasing the static even split. A zero
// EpochCycles takes the default epoch.
func WithFleetBalloon(p FleetPolicy) Option {
	return optionFunc(func(c *Config) {
		c.FleetBalloon = true
		c.Fleet = p
	})
}

// WithCATWays reserves n LLC ways for the RPC workers via cache
// allocation technology; 0 disables partitioning.
func WithCATWays(n int) Option {
	return optionFunc(func(c *Config) { c.CATWays = n })
}

// WithMachine selects the simulated machine.
func WithMachine(m MachineConfig) Option {
	return optionFunc(func(c *Config) { c.Machine = m })
}

// WithRPCRing overrides the total RPC queue capacity, split across the
// worker shards (0 keeps the default of 256 slots).
func WithRPCRing(capacity int) Option {
	return optionFunc(func(c *Config) { c.RPCRing = capacity })
}

// EnclaveOption configures one enclave (its SUVM heap and swapper) in
// NewEnclave, applied in order over the EnclaveConfig argument.
type EnclaveOption interface {
	applyEnclaveOption(*EnclaveConfig)
}

type enclaveOptionFunc func(*EnclaveConfig)

func (f enclaveOptionFunc) applyEnclaveOption(c *EnclaveConfig) { f(c) }

// WithEvictionPolicy selects the EPC++ eviction policy (§3.2.4 — SUVM
// exposes the policy to the application; default PolicyClock).
func WithEvictionPolicy(p EvictionPolicy) EnclaveOption {
	return enclaveOptionFunc(func(c *EnclaveConfig) { c.Heap.Policy = p })
}

// WithPageCache sizes EPC++ in bytes.
func WithPageCache(n uint64) EnclaveOption {
	return enclaveOptionFunc(func(c *EnclaveConfig) { c.PageCacheBytes = n })
}

// WithSUVMPageSize sets the EPC++ page size (power of two, 512..64 KiB).
func WithSUVMPageSize(n int) EnclaveOption {
	return enclaveOptionFunc(func(c *EnclaveConfig) { c.Heap.PageSize = n })
}

// WithSwapperInterval starts the background swapper thread at the given
// wall-clock period.
func WithSwapperInterval(d time.Duration) EnclaveOption {
	return enclaveOptionFunc(func(c *EnclaveConfig) {
		c.SwapperInterval = d
		c.ManualSwapper = false
	})
}

// WithManualSwapper creates the swapper in manual (deterministic) mode:
// no background goroutine; drive it with Enclave.Swapper().TickNow().
func WithManualSwapper() EnclaveOption {
	return enclaveOptionFunc(func(c *EnclaveConfig) {
		c.ManualSwapper = true
		c.SwapperInterval = 0
	})
}

// ServiceOption configures one carved service in Enclave.NewService,
// applied in order.
type ServiceOption interface {
	applyServiceOption(*serviceConfig)
}

type serviceConfig struct {
	epcBytes     uint64
	backingQuota uint64
	policy       EvictionPolicy
	seed         uint64
}

type serviceOptionFunc func(*serviceConfig)

func (f serviceOptionFunc) applyServiceOption(c *serviceConfig) { f(c) }

// WithServiceEPC sets the service's EPC++ share in bytes, carved out of
// the enclave's page cache. Required.
func WithServiceEPC(n uint64) ServiceOption {
	return serviceOptionFunc(func(c *serviceConfig) { c.epcBytes = n })
}

// WithServiceBacking caps the service's total backing-store allocation
// in bytes (0 = unlimited). A fairness knob for the shared untrusted
// backing region, not a PRM limit.
func WithServiceBacking(n uint64) ServiceOption {
	return serviceOptionFunc(func(c *serviceConfig) { c.backingQuota = n })
}

// WithServicePolicy selects the service domain's EPC++ eviction policy
// (default PolicyClock) — the per-service half of §3.2.4's
// application-controlled eviction.
func WithServicePolicy(p EvictionPolicy) ServiceOption {
	return serviceOptionFunc(func(c *serviceConfig) { c.policy = p })
}

// WithServiceSeed seeds the service's PolicyRandom evictor (default 1).
func WithServiceSeed(seed uint64) ServiceOption {
	return serviceOptionFunc(func(c *serviceConfig) { c.seed = seed })
}
