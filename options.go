package eleos

import "eleos/internal/sgx"

// MachineConfig configures the simulated SGX platform (PRM size, LLC
// geometry, cost model); the zero value selects the paper's testbed.
type MachineConfig = sgx.Config

// Option configures a Runtime. NewRuntime applies the options in order
// over the paper's defaults (two RPC workers, a 4-of-16-way CAT split),
// so later options win:
//
//	rt, _ := eleos.NewRuntime(
//		eleos.WithRPCWorkers(4),
//		eleos.WithCATWays(4),
//	)
type Option func(*config)

// config is what the options build: NewRuntime's input.
type config struct {
	machine sgx.Config
	// workers is the fixed pool size; 0 keeps the default of 2.
	workers int
	catWays int
	// ring is the total RPC queue capacity; 0 keeps the default of 256.
	ring int
	// autoTune and balloon switch the two controllers on; tune and
	// fleet are their policies.
	autoTune bool
	tune     TunePolicy
	balloon  bool
	fleet    FleetPolicy
}

// WithRPCWorkers sizes the untrusted RPC worker pool (and with it the
// number of ring shards) as a fixed pool: autotuning stays disabled and
// the pool never changes size. A positive n is mutually exclusive with
// WithWorkerBounds and WithAutoTune — combining them makes NewRuntime
// fail with ErrConflictingOptions, in either order. 0 keeps the default
// of 2 and conflicts with nothing; a negative n makes NewRuntime fail.
func WithRPCWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithWorkerBounds enables the self-tuning controller with the default
// policy and the given worker-pool bounds: the pool starts at min and
// the controller grows and shrinks it inside [min, max] as the offered
// load shifts. Mutually exclusive with WithRPCWorkers.
func WithWorkerBounds(min, max int) Option {
	return func(c *config) {
		c.autoTune = true
		c.tune.MinWorkers, c.tune.MaxWorkers = min, max
	}
}

// WithAutoTune enables the self-tuning controller with an explicit
// policy (zero fields take the tune defaults; the zero policy is
// exactly WithWorkerBounds(1, 8)). Mutually exclusive with
// WithRPCWorkers.
func WithAutoTune(p TunePolicy) Option {
	return func(c *config) { c.autoTune, c.tune = true, p }
}

// WithFleetBalloon enables the fleet-scale adaptive EPC++ balloon
// controller: every enclave the runtime creates becomes a tenant, and
// as serving loops drive Ctx.Pump the controller rebalances PRM shares
// from each heap's live demand signals — installing them through the
// driver's SetEPCShares ioctl and ballooning the heaps to match —
// instead of leaving every enclave chasing the static even split. A zero
// EpochCycles takes the default epoch.
func WithFleetBalloon(p FleetPolicy) Option {
	return func(c *config) { c.balloon, c.fleet = true, p }
}

// WithCATWays reserves n LLC ways for the RPC workers via cache
// allocation technology, protecting the enclave's share from I/O
// buffer pollution; 0 disables partitioning. The default is the
// paper's 4 of 16 (a 25%/75% split). n must leave the enclave at least
// one way, or NewRuntime fails.
func WithCATWays(n int) Option {
	return func(c *config) { c.catWays = n }
}

// WithMachine selects the simulated machine; the zero MachineConfig is
// the paper's testbed (93 MiB usable PRM, 8 MiB LLC).
func WithMachine(m MachineConfig) Option {
	return func(c *config) { c.machine = m }
}

// WithRPCRing overrides the total RPC queue capacity, split across the
// worker shards (0 keeps the default of 256 slots; a negative capacity
// makes NewRuntime fail).
func WithRPCRing(capacity int) Option {
	return func(c *config) { c.ring = capacity }
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
