// Package cache models the shared last-level cache of the simulated
// Skylake machine: a physically-indexed set-associative cache with
// exact LRU replacement (a per-set sequence number stamps every touch),
// Intel CAT-style way partitioning between classes of service, and
// memory-encryption-engine amplification of miss costs for lines that
// live in the enclave page cache (EPC).
//
// The model tracks tags only; data movement is performed by the callers
// on their own buffers. Its job is to charge the right number of cycles
// per line touched and to reproduce occupancy effects: cache pollution
// by system-call I/O buffers (Fig 2a/6b of the paper) and the reduced
// effective capacity available to enclaves.
//
// Every call probes its lines one at a time, in address order, but
// synchronizes and publishes per call: it takes each shard lock once
// per contiguous run of sets, and adds its cycles to the thread and its
// outcomes to Stats in a single step each. A concurrent reader of
// Thread.Cycles or Stats therefore sees either none or all of a range,
// never part of one.
//
// Cycle-charged and checked by eleoslint for determinism.
//
//eleos:deterministic
package cache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/cycles"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// CoS identifies a class of service for CAT way partitioning.
type CoS uint8

// Predefined classes of service. With partitioning disabled all classes
// may allocate into every way; EnablePartitioning restricts allocation
// per class while lookups always search all ways, as real CAT does.
const (
	CoSDefault CoS = iota // untrusted application code
	CoSEnclave            // enclave threads
	CoSRPC                // Eleos RPC worker threads
	numCoS
)

// Stats is a snapshot of the aggregate access counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	EPCMisses uint64
	Evictions uint64
}

type atomicStats struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	epcMisses atomic.Uint64
	evictions atomic.Uint64
}

// shardCount is the number of independently locked LLC shards. Each
// shard owns a contiguous run of sets, so a page or a long range takes
// one lock per run rather than one per line, while concurrent simulated
// threads touching distant addresses still do not serialize.
const shardCount = 16

// shard holds the state of its sets in flat, set-major arrays: way w of
// local set s lives at index s*ways+w.
type shard struct {
	mu   sync.Mutex
	tags []uint64 // lineAddr+1 of the cached line; 0 = invalid
	lru  []uint32 // per-set sequence number of the last touch; smaller = older
	seq  []uint32 // per-set access counter
}

// LLC is the shared last-level cache model. It is safe for concurrent
// use by multiple goroutines.
type LLC struct {
	model        *cycles.Model
	ways         int
	numSets      int
	setsPerShard int
	shards       [shardCount]shard
	masks        [numCoS]atomic.Uint64 // bit i set => way i allocatable
	stats        atomicStats
	epcLimit     uint64 // physical addresses below this are EPC
	epcLineEnd   uint64 // line addresses below this start inside the EPC
}

// Config describes the cache geometry.
type Config struct {
	// SizeBytes is the total capacity (default 8 MiB).
	SizeBytes int
	// Ways is the associativity (default 16).
	Ways int
	// EPCLimit is the exclusive upper bound of the EPC physical range;
	// misses on addresses below it pay the MEE amplification.
	EPCLimit uint64
}

// New creates an LLC with the given geometry over the cost model.
func New(m *cycles.Model, cfg Config) *LLC {
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 8 << 20
	}
	if cfg.Ways == 0 {
		cfg.Ways = 16
	}
	numSets := cfg.SizeBytes / (LineSize * cfg.Ways)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", numSets))
	}
	c := &LLC{
		model:        m,
		ways:         cfg.Ways,
		numSets:      numSets,
		setsPerShard: max(numSets/shardCount, 1),
		epcLimit:     cfg.EPCLimit,
		epcLineEnd:   cfg.EPCLimit / LineSize,
	}
	if cfg.EPCLimit%LineSize != 0 {
		c.epcLineEnd++
	}
	// With fewer sets than shards, only the first numSets shards are used.
	for i := 0; i < min(shardCount, numSets); i++ {
		sh := &c.shards[i]
		sh.tags = make([]uint64, c.setsPerShard*cfg.Ways)
		sh.lru = make([]uint32, c.setsPerShard*cfg.Ways)
		sh.seq = make([]uint32, c.setsPerShard)
	}
	c.DisablePartitioning()
	return c
}

// EnablePartitioning applies the Eleos CAT split: the RPC class of
// service may allocate only into rpcWays ways, and the enclave class
// into the remaining ways. The default class keeps all ways. Each
// access reads its class's mask once, so a call racing with a change
// of partitioning uses either the old or the new mask throughout.
// Changes of partitioning must not race one another: each stores the
// class masks one at a time.
func (c *LLC) EnablePartitioning(rpcWays int) {
	if rpcWays <= 0 || rpcWays >= c.ways {
		panic(fmt.Sprintf("cache: rpcWays %d out of range (1..%d)", rpcWays, c.ways-1))
	}
	rpcMask := (uint64(1) << uint(rpcWays)) - 1
	c.masks[CoSRPC].Store(rpcMask)
	c.masks[CoSEnclave].Store(((uint64(1) << uint(c.ways)) - 1) &^ rpcMask)
}

// DisablePartitioning restores the default all-ways masks.
func (c *LLC) DisablePartitioning() {
	allWays := (uint64(1) << uint(c.ways)) - 1
	for i := range c.masks {
		c.masks[i].Store(allWays)
	}
}

// tally is the outcome of one probe call.
type tally struct {
	hits, misses, epcMisses, evictions uint64
}

// probe looks up the lines [first, last] in address order, installing
// each miss within mask, and publishes the outcomes to the aggregate
// counters once. A missed line counts as an EPC miss when its address
// is below epcEnd. It performs no cycle charging; Access, AccessRange
// and InstallRange charge from the returned tally.
//
// Consecutive lines map to consecutive sets, so the range splits into
// runs of sets owned by one shard; each run is probed under a single
// acquisition of that shard's lock.
func (c *LLC) probe(mask, first, last, epcEnd uint64) tally {
	var t tally
	numSets, perShard, ways := uint64(c.numSets), uint64(c.setsPerShard), c.ways
	for la := first; la <= last; {
		setIdx := la % numSets
		sh := &c.shards[setIdx/perShard]
		local := setIdx % perShard
		end := la + min(perShard-local, last-la+1)
		sh.mu.Lock()
		for ; la < end; la, local = la+1, local+1 {
			base := int(local) * ways
			tags := sh.tags[base : base+ways]
			lru := sh.lru[base : base+ways]
			sh.seq[local]++
			seq, tag := sh.seq[local], la+1
			way, hit, evicted := scan(tags, lru, tag, mask)
			if hit {
				lru[way] = seq
				t.hits++
				continue
			}
			if way >= 0 {
				tags[way], lru[way] = tag, seq
			}
			t.misses++
			if la < epcEnd {
				t.epcMisses++
			}
			if evicted {
				t.evictions++
			}
		}
		sh.mu.Unlock()
	}
	if t.hits != 0 {
		c.stats.hits.Add(t.hits)
	}
	if t.misses != 0 {
		c.stats.misses.Add(t.misses)
	}
	if t.epcMisses != 0 {
		c.stats.epcMisses.Add(t.epcMisses)
	}
	if t.evictions != 0 {
		c.stats.evictions.Add(t.evictions)
	}
	return t
}

// scan looks tag up in one set, searching every way regardless of mask.
// On a hit it returns the way holding tag. On a miss it returns the way
// to fill among those mask allows — the first invalid one, else the
// least recently used (the last of equals) — or -1 when mask allows
// none, and whether filling it evicts a valid line.
func scan(tags []uint64, lru []uint32, tag, mask uint64) (way int, hit, evicted bool) {
	lru = lru[:len(tags)] // drops the bounds checks on lru[i] below
	victim, victimSeq, invalid := -1, ^uint32(0), -1
	for i, tg := range tags {
		if tg == tag {
			return i, true, false
		}
		allowed := mask&1 != 0
		mask >>= 1
		if !allowed {
			continue
		}
		if tg == 0 {
			if invalid < 0 {
				invalid = i
			}
		} else if lru[i] <= victimSeq {
			victim, victimSeq = i, lru[i]
		}
	}
	if invalid >= 0 {
		return invalid, false, false
	}
	return victim, false, victim >= 0
}

// Access simulates one cache-line access at physical address paddr and
// charges the full hit or miss latency to t. write selects the store
// path (EPC write misses are costlier than reads, Table 1). It returns
// true on a hit.
//
//eleos:hotpath budget=0
func (c *LLC) Access(t *cycles.Thread, cos CoS, paddr uint64, write bool) bool {
	la := paddr / LineSize
	epc := paddr < c.epcLimit
	epcEnd := la
	if epc {
		epcEnd = la + 1
	}
	if c.probe(c.masks[cos].Load(), la, la, epcEnd).hits != 0 {
		t.Charge(c.model.LLCHit)
		return true
	}
	t.Charge(c.model.EPCMissCycles(write, epc))
	return false
}

// AccessRange simulates touching every cache line in [paddr, paddr+n).
// It additionally charges the L1-level per-line floor cost, so that even
// all-hit copies are not free. Bulk transfers overlap their misses: the
// miss penalty is amortized over min(StreamMLP, lines) outstanding
// requests, so a 4 KiB page copy costs what a streamed copy costs on
// real hardware rather than lines times the full miss latency. A
// single-line access always pays full latency — which is what Table 1's
// random-access microbenchmark measures. The per-line miss cost is
// rounded down before it is multiplied by the miss count.
//
//eleos:hotpath budget=0
func (c *LLC) AccessRange(t *cycles.Thread, cos CoS, paddr uint64, n int, write bool) {
	if n <= 0 {
		return
	}
	first := paddr / LineSize
	last := (paddr + uint64(n) - 1) / LineSize
	lines := last - first + 1
	mlp := c.model.StreamMLP
	if mlp == 0 {
		mlp = 1
	}
	mlp = min(mlp, lines)
	r := c.probe(c.masks[cos].Load(), first, last, c.epcLineEnd)
	missCost := c.model.EPCMissCycles(write, paddr < c.epcLimit) / mlp
	t.Charge(lines*c.model.L1Hit + r.hits*c.model.LLCHit + r.misses*missCost)
}

// InstallRange installs the lines of [paddr, paddr+n) into the cache,
// charging only the hit-level cost per line. It models stores whose miss
// handling is fully overlapped with the producing computation (e.g. the
// AES-GCM output stream of a SUVM page-in filling a whole page), where a
// write-allocate fetch would be pure waste.
//
//eleos:hotpath budget=0
func (c *LLC) InstallRange(t *cycles.Thread, cos CoS, paddr uint64, n int) {
	if n <= 0 {
		return
	}
	first := paddr / LineSize
	last := (paddr + uint64(n) - 1) / LineSize
	c.probe(c.masks[cos].Load(), first, last, c.epcLineEnd)
	t.Charge((last - first + 1) * (c.model.L1Hit + c.model.LLCHit))
}

// Stats returns a snapshot of the aggregate counters.
func (c *LLC) Stats() Stats {
	return Stats{
		Hits:      c.stats.hits.Load(),
		Misses:    c.stats.misses.Load(),
		EPCMisses: c.stats.epcMisses.Load(),
		Evictions: c.stats.evictions.Load(),
	}
}

// Invalidate drops every cached line (benchmark hygiene between
// measurement phases; real experiments get the same effect from the
// wbinvd they run between configurations).
func (c *LLC) Invalidate() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.tags)
		sh.mu.Unlock()
	}
}

// ResetStats zeroes the aggregate counters.
func (c *LLC) ResetStats() {
	c.stats.hits.Store(0)
	c.stats.misses.Store(0)
	c.stats.epcMisses.Store(0)
	c.stats.evictions.Store(0)
}

// Ways returns the associativity.
func (c *LLC) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *LLC) Sets() int { return c.numSets }

// SizeBytes returns the total capacity.
func (c *LLC) SizeBytes() int { return c.numSets * c.ways * LineSize }
