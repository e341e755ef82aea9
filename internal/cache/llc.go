// Package cache models the shared last-level cache of the simulated
// Skylake machine: a physically-indexed set-associative cache of at most
// 16 ways with exact LRU replacement, Intel CAT-style way partitioning
// between classes of service, and memory-encryption-engine
// amplification of miss costs for lines that live in the enclave page
// cache (EPC).
//
// The model tracks tags only; data movement is performed by the callers
// on their own buffers. Its job is to charge the right number of cycles
// per line touched and to reproduce occupancy effects: cache pollution
// by system-call I/O buffers (Fig 2a/6b of the paper) and the reduced
// effective capacity available to enclaves.
//
// Each set keeps its ways' tags, a bitmask of the ways holding a line,
// and its exact recency order: a stack of 4-bit way numbers packed into
// one word, most recently used first. A hit moves its way to the top of
// the stack. A miss fills the lowest-numbered free way its class may
// allocate into, else its class's way nearest the bottom of the stack —
// the same victim as stamping every touch with a per-set sequence
// number and evicting the smallest stamp, without a scan of the stamps.
//
// Like real CAT, which accepts only contiguous capacity bitmasks, each
// class allocates into a contiguous run of ways [lo, hi]. That makes
// the victim search one SWAR pass rather than a walk up the stack: the
// even and odd nibbles of the recency word are spread into bytes, each
// byte is compared against lo and hi at once with a guard bit, and the
// highest flagged position — the least recent way of the run — is a
// single LeadingZeros64. An RPC class confined to a few ways whose
// lines sit near the top of the stack costs what any other miss costs.
//
// Every call probes its lines one at a time, in address order, but
// synchronizes and publishes per call: it takes each shard lock once
// per contiguous run of sets, adds its outcomes to the counters of the
// shard that owns its last run before it releases that shard's lock,
// and adds its cycles to the thread in a single step. Stats sums the
// shards' counters under each lock in turn. A concurrent reader of
// Thread.Cycles or Stats therefore sees either none or all of a range,
// never part of one.
//
// Cycle-charged and checked by eleoslint for determinism.
//
//eleos:deterministic
package cache

import (
	"fmt"
	"math"
	"math/bits"
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
// per class to a contiguous run of ways, while lookups always search all
// ways, as real CAT does.
const (
	CoSDefault CoS = iota // untrusted application code
	CoSEnclave            // enclave threads
	CoSRPC                // Eleos RPC worker threads
	numCoS
)

// Stats is a snapshot of the aggregate access counters. It is also the
// outcome of one probe call and a shard's share of the aggregate.
type Stats struct {
	Hits      uint64
	Misses    uint64
	EPCMisses uint64
	Evictions uint64
}

func (s *Stats) add(u Stats) {
	s.Hits += u.Hits
	s.Misses += u.Misses
	s.EPCMisses += u.EPCMisses
	s.Evictions += u.Evictions
}

// shardCount is the number of independently locked LLC shards. Each
// shard owns a contiguous run of sets, so a page or a long range takes
// one lock per run rather than one per line, while concurrent simulated
// threads touching distant addresses still do not serialize.
const shardCount = 16

// maxWays is the largest supported associativity: a set's recency order
// holds one 4-bit way number per way in a single uint64.
const maxWays = 16

// shard holds the state of its run of sets, and the outcomes of the
// calls whose last run of sets it owns.
type shard struct {
	mu    sync.Mutex
	sets  []set
	stats Stats
}

// set is the state of one set. Its tag array always has maxWays slots;
// slots at or beyond the cache's associativity stay 0 forever.
type set struct {
	tags [maxWays]uint32 // lineAddr+1 of the cached line; 0 = invalid
	// order is the recency stack: the 4-bit nibble at position p (bits
	// 4p..4p+3) holds the way used p-th most recently, so nibble 0 is
	// the most and nibble ways-1 the least recently used way.
	order uint64
	valid uint64 // bit w set => way w holds a line
}

// initialOrder stacks way p at position p, for every possible way.
const initialOrder = 0xFEDCBA9876543210

// nibbleOnes has a 1 in the low bit of every nibble.
const nibbleOnes = 0x1111111111111111

// touch moves way to the most recently used position of the recency
// order.
func (s *set) touch(way int) {
	s.promote(s.position(way), way)
}

// position returns four times the position of way in the recency order.
// way is in the first ways positions; every later position holds a
// number of at least ways, so the lowest nibble equal to way is its
// position.
func (s *set) position(way int) uint {
	// x has a zero nibble where way sits; z flags the lowest such
	// nibble exactly (borrows only propagate upward from it).
	x := s.order ^ uint64(way)*nibbleOnes
	z := (x - nibbleOnes) &^ x & (nibbleOnes << 3)
	return uint(bits.TrailingZeros64(z)) & 60
}

// promote moves way, at four times position pos of the recency order,
// to the most recently used position, shifting the ways above it down
// by one.
func (s *set) promote(pos uint, way int) {
	below := uint64(1)<<(pos&60) - 1
	s.order = s.order&^(below<<4|0xF) | (s.order&below)<<4 | uint64(way)
}

// fill installs tag after a miss in a way of run: the lowest-numbered
// invalid one, else the least recently used. It reports whether that
// evicted a valid line.
func (s *set) fill(tag uint32, run wayRun) (evicted bool) {
	if free := run.mask &^ s.valid; free != 0 {
		way := bits.TrailingZeros64(free)
		s.tags[way] = tag
		s.valid |= 1 << uint(way)
		s.touch(way)
		return false
	}
	pos := run.lru(s.order)
	way := int(s.order>>pos) & 0xF
	s.tags[way] = tag
	s.promote(pos, way)
	return true
}

// byteLow and byteHigh select the low nibble and the top bit of every
// byte; byteOnes broadcasts a byte value to all eight.
const (
	byteLow  = 0x0F0F0F0F0F0F0F0F
	byteHigh = 0x8080808080808080
	byteOnes = 0x0101010101010101
)

// wayRun is the contiguous run of ways [lo, hi] a class of service may
// allocate into, in the forms fill uses.
type wayRun struct {
	mask uint64 // bit w set => way w in the run
	lo   uint64 // lo in every byte
	hi   uint64 // hi|0x80 in every byte
}

func newWayRun(lo, hi int) wayRun {
	return wayRun{
		mask: uint64(2)<<uint(hi) - uint64(1)<<uint(lo),
		lo:   uint64(lo) * byteOnes,
		hi:   uint64(hi)*byteOnes | byteHigh,
	}
}

// lru returns four times the position in the recency order of the
// run's least recently used way: the highest position whose way is in
// the run. Every way of the run is somewhere in order, and positions at
// or beyond the cache's associativity hold way numbers above any run,
// so such a position always exists.
//
// Byte k of even holds the way at position 2k, and of odd the way at
// 2k+1. With the guard bit 0x80 set, (b|0x80)-lo keeps it iff b >= lo,
// and (hi|0x80)-b keeps it iff b <= hi; no byte borrows from the next.
// The even flags shifted down by 4 interleave with the odd ones in
// position order, each flag 3 bits above its nibble's shift.
func (r wayRun) lru(order uint64) uint {
	even := order & byteLow
	odd := (order >> 4) & byteLow
	inEven := ((even | byteHigh) - r.lo) & (r.hi - even) & byteHigh
	inOdd := ((odd | byteHigh) - r.lo) & (r.hi - odd) & byteHigh
	return 60 - uint(bits.LeadingZeros64(inOdd|inEven>>4))
}

// LLC is the shared last-level cache model. It is safe for concurrent
// use by multiple goroutines.
type LLC struct {
	model      *cycles.Model
	ways       int
	numSets    int
	shardShift uint // log2 of the sets per shard
	shards     [shardCount]shard
	runs       atomic.Pointer[[numCoS]wayRun] // each class's way run
	epcLimit   uint64                         // physical addresses below this are EPC
	epcLineEnd uint64                         // line addresses below this start inside the EPC
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
		cfg.Ways = maxWays
	}
	if cfg.Ways < 1 || cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways out of range (1..%d)", cfg.Ways, maxWays))
	}
	numSets := cfg.SizeBytes / (LineSize * cfg.Ways)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", numSets))
	}
	c := &LLC{
		model:      m,
		ways:       cfg.Ways,
		numSets:    numSets,
		shardShift: uint(bits.TrailingZeros(uint(max(numSets/shardCount, 1)))),
		epcLimit:   cfg.EPCLimit,
		epcLineEnd: cfg.EPCLimit / LineSize,
	}
	if cfg.EPCLimit%LineSize != 0 {
		c.epcLineEnd++
	}
	// With fewer sets than shards, only the first numSets shards are used.
	for i := 0; i < min(shardCount, numSets); i++ {
		sh := &c.shards[i]
		sh.sets = make([]set, 1<<c.shardShift)
		for j := range sh.sets {
			sh.sets[j].order = initialOrder
		}
	}
	c.DisablePartitioning()
	return c
}

// EnablePartitioning applies the Eleos CAT split: the RPC class of
// service may allocate only into ways [0, rpcWays), and the enclave
// class into the remaining ways. The default class keeps all ways. A
// change of partitioning swaps every class's run in one store, and each
// access reads its class's run once, so a call racing with a change
// uses either the old or the new run throughout.
func (c *LLC) EnablePartitioning(rpcWays int) {
	if rpcWays <= 0 || rpcWays >= c.ways {
		panic(fmt.Sprintf("cache: rpcWays %d out of range (1..%d)", rpcWays, c.ways-1))
	}
	c.runs.Store(&[numCoS]wayRun{
		CoSDefault: newWayRun(0, c.ways-1),
		CoSEnclave: newWayRun(rpcWays, c.ways-1),
		CoSRPC:     newWayRun(0, rpcWays-1),
	})
}

// DisablePartitioning lets every class allocate into every way again.
func (c *LLC) DisablePartitioning() {
	all := newWayRun(0, c.ways-1)
	c.runs.Store(&[numCoS]wayRun{all, all, all})
}

// run loads the way run cos may allocate into.
func (c *LLC) run(cos CoS) wayRun { return c.runs.Load()[cos] }

// probe looks up the lines [first, last] in address order, installing
// each miss within run, and publishes the outcomes to the aggregate
// counters once: to the shard of its last run, under that run's lock.
// A missed line counts as an EPC miss when its address is below epcEnd.
// It performs no cycle charging; Access, AccessRange and InstallRange
// charge from the returned outcomes. It panics if a line address does
// not fit a 32-bit tag, rather than alias two lines.
//
// Consecutive lines map to consecutive sets, so the range splits into
// runs of sets owned by one shard; each run is probed under a single
// acquisition of that shard's lock.
func (c *LLC) probe(run wayRun, first, last, epcEnd uint64) Stats {
	if last >= math.MaxUint32 {
		panic("cache: line address beyond the 32-bit tag range")
	}
	var t Stats
	// Set and shard counts are powers of two: index with masks and
	// shifts rather than divisions.
	setMask, shift := uint64(c.numSets-1), c.shardShift
	perShard := uint64(1) << shift
	for la := first; ; {
		setIdx := la & setMask
		sh := &c.shards[setIdx>>shift]
		local := setIdx & (perShard - 1)
		end := la + min(perShard-local, last-la+1)
		sh.mu.Lock()
		t.add(probeSets(sh.sets[local:local+end-la], run, la, epcEnd))
		if end > last {
			sh.stats.add(t)
			sh.mu.Unlock()
			return t
		}
		sh.mu.Unlock()
		la = end
	}
}

// probeSets probes the consecutive lines from la on, one in each of
// sets, under the lock of the shard that owns sets. It is kept out of
// probe so that its loop has the registers to itself.
func probeSets(sets []set, run wayRun, la, epcEnd uint64) Stats {
	var t Stats
	n := uint64(len(sets))
	epcLines := min(max(epcEnd, la), la+n) - la // the first epcLines lines are EPC
	tag := uint32(la)
	for i := range sets {
		tag++
		st := &sets[i]
		// A hit on the most recently used way leaves the order as it is.
		if st.tags[st.order&0xF] == tag {
			t.Hits++
			continue
		}
		way := st.lookup(tag)
		if way >= 0 {
			st.touch(way)
			t.Hits++
			continue
		}
		if uint64(i) < epcLines {
			t.EPCMisses++
		}
		if st.fill(tag, run) {
			t.Evictions++
		}
	}
	t.Misses = n - t.Hits
	return t
}

// lookup returns the way holding tag, or -1. It compares every tag slot
// regardless of the class's run, as real CAT searches every way. A
// miss compares all maxWays slots, so the comparison is unrolled: a
// loop would spend more on its counter than on the compares.
func (s *set) lookup(tag uint32) int {
	switch tag {
	case s.tags[0]:
		return 0
	case s.tags[1]:
		return 1
	case s.tags[2]:
		return 2
	case s.tags[3]:
		return 3
	case s.tags[4]:
		return 4
	case s.tags[5]:
		return 5
	case s.tags[6]:
		return 6
	case s.tags[7]:
		return 7
	case s.tags[8]:
		return 8
	case s.tags[9]:
		return 9
	case s.tags[10]:
		return 10
	case s.tags[11]:
		return 11
	case s.tags[12]:
		return 12
	case s.tags[13]:
		return 13
	case s.tags[14]:
		return 14
	case s.tags[15]:
		return 15
	}
	return -1
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
	if c.probe(c.run(cos), la, la, epcEnd).Hits != 0 {
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
	r := c.probe(c.run(cos), first, last, c.epcLineEnd)
	missCost := c.model.EPCMissCycles(write, paddr < c.epcLimit) / mlp
	t.Charge(lines*c.model.L1Hit + r.Hits*c.model.LLCHit + r.Misses*missCost)
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
	c.probe(c.run(cos), first, last, c.epcLineEnd)
	t.Charge((last - first + 1) * (c.model.L1Hit + c.model.LLCHit))
}

// Stats returns a snapshot of the aggregate counters.
func (c *LLC) Stats() Stats {
	var t Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		t.add(sh.stats)
		sh.mu.Unlock()
	}
	return t
}

// Invalidate drops every cached line (benchmark hygiene between
// measurement phases; real experiments get the same effect from the
// wbinvd they run between configurations).
func (c *LLC) Invalidate() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for j := range sh.sets {
			sh.sets[j].tags, sh.sets[j].valid = [maxWays]uint32{}, 0
		}
		sh.mu.Unlock()
	}
}

// ResetStats zeroes the aggregate counters.
func (c *LLC) ResetStats() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Ways returns the associativity.
func (c *LLC) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *LLC) Sets() int { return c.numSets }

// SizeBytes returns the total capacity.
func (c *LLC) SizeBytes() int { return c.numSets * c.ways * LineSize }
