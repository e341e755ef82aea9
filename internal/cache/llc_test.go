package cache

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"eleos/internal/cycles"
	"eleos/internal/phys"
)

func newLLC(t testing.TB) (*LLC, *cycles.Thread) {
	t.Helper()
	m := cycles.DefaultModel()
	return New(m, Config{EPCLimit: phys.EPCLimit}), cycles.NewThread(1, m)
}

func TestHitAfterMiss(t *testing.T) {
	c, th := newLLC(t)
	if c.Access(th, CoSDefault, phys.HostBase, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(th, CoSDefault, phys.HostBase, false) {
		t.Fatal("warm access missed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMissCostsFollowModel(t *testing.T) {
	c, th := newLLC(t)
	m := th.Model()

	cases := []struct {
		paddr uint64
		write bool
		want  uint64
	}{
		{phys.HostBase, false, m.DRAMMiss},
		{phys.HostBase + 64, true, m.DRAMMiss},
		{0, false, uint64(float64(m.DRAMMiss) * m.EPCReadMult)},
		{64, true, uint64(float64(m.DRAMMiss) * m.EPCWriteMult)},
	}
	for _, tc := range cases {
		before := th.Cycles()
		c.Access(th, CoSEnclave, tc.paddr, tc.write)
		if got := th.Cycles() - before; got != tc.want {
			t.Fatalf("miss at %#x write=%v charged %d, want %d", tc.paddr, tc.write, got, tc.want)
		}
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	c, th := newLLC(t)
	ways := c.Ways()
	set := uint64(5)
	line := func(i int) uint64 {
		return phys.HostBase + (set+uint64(i)*uint64(c.Sets()))*LineSize
	}
	// Fill the set, touch line 0 again, then overflow by one: the LRU
	// victim must be line 1, not the recently-touched line 0.
	for i := 0; i < ways; i++ {
		c.Access(th, CoSDefault, line(i), false)
	}
	c.Access(th, CoSDefault, line(0), false)
	c.Access(th, CoSDefault, line(ways), false) // evicts line 1
	if !c.Access(th, CoSDefault, line(0), false) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(th, CoSDefault, line(1), false) {
		t.Fatal("LRU line survived overflow")
	}
}

func TestPartitioningBoundsRPCOccupancy(t *testing.T) {
	c, th := newLLC(t)
	c.EnablePartitioning(4)
	set := uint64(9)
	line := func(i int) uint64 {
		return phys.HostBase + (set+uint64(i)*uint64(c.Sets()))*LineSize
	}
	// The RPC class streams 32 distinct lines of one set; only its 4
	// ways may hold them, so at most 4 can hit on a re-pass.
	for i := 0; i < 32; i++ {
		c.Access(th, CoSRPC, line(i), false)
	}
	hits := 0
	for i := 0; i < 32; i++ {
		if c.Access(th, CoSRPC, line(i), false) {
			hits++
		}
	}
	if hits > 4 {
		t.Fatalf("RPC class holds %d lines of one set with a 4-way mask", hits)
	}
	// The enclave class must still be able to cache 12 lines.
	for i := 100; i < 112; i++ {
		c.Access(th, CoSEnclave, line(i), false)
	}
	hits = 0
	for i := 100; i < 112; i++ {
		if c.Access(th, CoSEnclave, line(i), false) {
			hits++
		}
	}
	if hits != 12 {
		t.Fatalf("enclave class retained %d of its 12 lines", hits)
	}
}

// TestCATVictimDeepInStack fills a set with twelve enclave lines and
// then four RPC lines, so the RPC ways sit at the top of the recency
// order above every enclave way. A miss of either class must still
// evict that class's least recently used way.
func TestCATVictimDeepInStack(t *testing.T) {
	c, th := newLLC(t)
	c.EnablePartitioning(4)
	set := uint64(3)
	line := func(i int) uint64 {
		return phys.HostBase + (set+uint64(i)*uint64(c.Sets()))*LineSize
	}
	enc := func(i int) uint64 { return line(i) }
	rpc := func(i int) uint64 { return line(100 + i) }
	for i := 0; i < 12; i++ {
		c.Access(th, CoSEnclave, enc(i), false)
	}
	c.Access(th, CoSEnclave, enc(0), false) // enc(1) is now the least recent
	for i := 0; i < 4; i++ {
		c.Access(th, CoSRPC, rpc(i), false)
	}
	for _, i := range []int{2, 0, 3, 1} {
		c.Access(th, CoSRPC, rpc(i), false) // rpc(2) is now the least recent
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("filling the set evicted: %+v", st)
	}

	c.Access(th, CoSRPC, rpc(4), false)
	c.Access(th, CoSEnclave, enc(12), false)
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("two misses in a full set evicted %d lines", st.Evictions)
	}
	for _, a := range []uint64{enc(0), enc(2), enc(11), enc(12), rpc(0), rpc(1), rpc(3), rpc(4)} {
		if !c.Access(th, CoSDefault, a, false) {
			t.Fatalf("line %#x was evicted", a)
		}
	}
	if c.Access(th, CoSRPC, rpc(2), false) {
		t.Fatal("the least recent RPC line survived an RPC miss")
	}
	if c.Access(th, CoSEnclave, enc(1), false) {
		t.Fatal("the least recent enclave line survived an enclave miss")
	}
}

// TestWayRunLRUMatchesWalk checks the SWAR victim search against a walk
// up the recency stack, for every run of every associativity over
// random recency orders.
func TestWayRunLRUMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= maxWays; ways++ {
		for trial := 0; trial < 50; trial++ {
			order := uint64(initialOrder)
			for p, w := range rng.Perm(ways) {
				order = order&^(0xF<<(4*p)) | uint64(w)<<(4*p)
			}
			for lo := 0; lo < ways; lo++ {
				for hi := lo; hi < ways; hi++ {
					want := uint(4 * (ways - 1))
					for w := int(order>>want) & 0xF; w < lo || w > hi; w = int(order>>want) & 0xF {
						want -= 4
					}
					if got := newWayRun(lo, hi).lru(order); got != want {
						t.Fatalf("order %#x run [%d, %d]: lru %d, walk %d", order, lo, hi, got, want)
					}
				}
			}
		}
	}
}

func TestAccessRangeAmortizesMisses(t *testing.T) {
	c, th := newLLC(t)
	m := th.Model()
	// One cold 4KiB range: misses overlap up to StreamMLP deep.
	before := th.Cycles()
	c.AccessRange(th, CoSDefault, phys.HostBase+1<<20, 4096, false)
	bulk := th.Cycles() - before
	perLine := bulk / 64
	if perLine >= m.DRAMMiss {
		t.Fatalf("bulk miss cost %d/line not amortized (full latency %d)", perLine, m.DRAMMiss)
	}
	// A single cold line pays full latency.
	before = th.Cycles()
	c.AccessRange(th, CoSDefault, phys.HostBase+2<<20, 8, false)
	single := th.Cycles() - before
	if single != m.L1Hit+m.DRAMMiss {
		t.Fatalf("single-line range charged %d, want %d", single, m.L1Hit+m.DRAMMiss)
	}
}

func TestInstallRangeChargesHitLevel(t *testing.T) {
	c, th := newLLC(t)
	m := th.Model()
	before := th.Cycles()
	c.InstallRange(th, CoSEnclave, 0, 4096)
	if got, want := th.Cycles()-before, 64*(m.L1Hit+m.LLCHit); got != want {
		t.Fatalf("install charged %d, want %d", got, want)
	}
	// Installed lines are present afterwards.
	if !c.Access(th, CoSEnclave, 0, false) {
		t.Fatal("installed line missing")
	}
}

func TestInvalidate(t *testing.T) {
	c, th := newLLC(t)
	c.Access(th, CoSDefault, phys.HostBase, false)
	c.Invalidate()
	if c.Access(th, CoSDefault, phys.HostBase, false) {
		t.Fatal("line survived Invalidate")
	}
}

// mustPanic runs f and fails unless it panics with exactly want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	f()
}

func TestNewRejectsWaysOutOfRange(t *testing.T) {
	m := cycles.DefaultModel()
	for _, ways := range []int{-1, 17, 32} {
		mustPanic(t, fmt.Sprintf("cache: %d ways out of range (1..16)", ways), func() {
			New(m, Config{SizeBytes: 1 << 20, Ways: ways})
		})
	}
	for _, ways := range []int{1, 16} {
		if got := New(m, Config{SizeBytes: 1 << 20, Ways: ways}).Ways(); got != ways {
			t.Fatalf("New with %d ways has %d", ways, got)
		}
	}
}

// TestTagRangeGuard checks that a line whose address does not fit a
// 32-bit tag panics instead of aliasing a low line, on every entry
// point, and that the highest line that fits is cached.
func TestTagRangeGuard(t *testing.T) {
	c, th := newLLC(t)
	const want = "cache: line address beyond the 32-bit tag range"
	top := uint64(math.MaxUint32-1) * LineSize // last line that fits
	c.Access(th, CoSDefault, top, false)
	if !c.Access(th, CoSDefault, top+LineSize-1, false) {
		t.Fatal("highest taggable line not cached")
	}
	mustPanic(t, want, func() { c.Access(th, CoSDefault, top+LineSize, false) })
	mustPanic(t, want, func() { c.AccessRange(th, CoSDefault, top, LineSize+1, false) })
	mustPanic(t, want, func() { c.InstallRange(th, CoSDefault, top+LineSize, 1) })
	if st := c.Stats(); st.Hits+st.Misses != 2 {
		t.Fatalf("a rejected call probed lines: %+v", st)
	}
}

// refLLC is the straightforward per-line model the sharded LLC must
// reproduce exactly: one []refLine per set, a valid-and-tag lookup, a
// masked LRU victim scan, and a charge and counter update per line.
type refLLC struct {
	model    *cycles.Model
	ways     int
	sets     []refSet
	masks    [numCoS]uint64
	stats    Stats
	epcLimit uint64
}

type refSet struct {
	lines []refLine
	seq   uint32
}

type refLine struct {
	tag   uint64
	valid bool
	lru   uint32
}

func newRefLLC(m *cycles.Model, c *LLC, epcLimit uint64) *refLLC {
	r := &refLLC{model: m, ways: c.Ways(), sets: make([]refSet, c.Sets()), epcLimit: epcLimit}
	for i := range r.sets {
		r.sets[i].lines = make([]refLine, r.ways)
	}
	r.disable()
	return r
}

func (r *refLLC) enable(rpcWays int) {
	rpcMask := (uint64(1) << uint(rpcWays)) - 1
	r.masks[CoSRPC] = rpcMask
	r.masks[CoSEnclave] = ((uint64(1) << uint(r.ways)) - 1) &^ rpcMask
}

func (r *refLLC) disable() {
	for i := range r.masks {
		r.masks[i] = (uint64(1) << uint(r.ways)) - 1
	}
}

func (r *refLLC) invalidate() {
	for i := range r.sets {
		for j := range r.sets[i].lines {
			r.sets[i].lines[j].valid = false
		}
	}
}

func (r *refLLC) probe(cos CoS, paddr uint64) bool {
	lineAddr := paddr / LineSize
	s := &r.sets[lineAddr%uint64(len(r.sets))]
	s.seq++
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].tag == lineAddr {
			s.lines[i].lru = s.seq
			r.stats.Hits++
			return true
		}
	}
	mask := r.masks[cos]
	victim, victimSeq, evicted := -1, ^uint32(0), false
	for i := range s.lines {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !s.lines[i].valid {
			victim, evicted = i, false
			break
		}
		if s.lines[i].lru <= victimSeq {
			victim, victimSeq, evicted = i, s.lines[i].lru, true
		}
	}
	if victim >= 0 {
		s.lines[victim] = refLine{tag: lineAddr, valid: true, lru: s.seq}
	}
	r.stats.Misses++
	if paddr < r.epcLimit {
		r.stats.EPCMisses++
	}
	if evicted {
		r.stats.Evictions++
	}
	return false
}

func (r *refLLC) access(t *cycles.Thread, cos CoS, paddr uint64, write bool) bool {
	if r.probe(cos, paddr) {
		t.Charge(r.model.LLCHit)
		return true
	}
	t.Charge(r.model.EPCMissCycles(write, paddr < r.epcLimit))
	return false
}

func (r *refLLC) accessRange(t *cycles.Thread, cos CoS, paddr uint64, n int, write bool) {
	first := paddr / LineSize
	last := (paddr + uint64(n) - 1) / LineSize
	mlp := r.model.StreamMLP
	if mlp == 0 {
		mlp = 1
	}
	if lines := last - first + 1; lines < mlp {
		mlp = lines
	}
	for la := first; la <= last; la++ {
		t.Charge(r.model.L1Hit)
		if r.probe(cos, la*LineSize) {
			t.Charge(r.model.LLCHit)
		} else {
			t.Charge(r.model.EPCMissCycles(write, paddr < r.epcLimit) / mlp)
		}
	}
}

func (r *refLLC) installRange(t *cycles.Thread, cos CoS, paddr uint64, n int) {
	first := paddr / LineSize
	last := (paddr + uint64(n) - 1) / LineSize
	for la := first; la <= last; la++ {
		t.Charge(r.model.L1Hit + r.model.LLCHit)
		r.probe(cos, la*LineSize)
	}
}

// TestMatchesReferenceModel drives the LLC and the per-line reference
// with the same seeded random operation sequences and requires
// identical hit results, cycles charged per call and Stats after every
// call. The geometries cover the default cache, an EPC limit that is not
// line-aligned, and fewer sets than shards; addresses cluster just
// below shard-run boundaries (numSets among them, so ranges wrap) and
// draw from twice the associativity in tags, so sets overflow.
func TestMatchesReferenceModel(t *testing.T) {
	geometries := []Config{
		{EPCLimit: 8 << 20},
		{SizeBytes: 1 << 20, Ways: 8, EPCLimit: 1<<20 + 40},
		{SizeBytes: 64 << 10, Ways: 4, EPCLimit: 64<<10 + 1},
		{SizeBytes: 4096, Ways: 16, EPCLimit: 4096 + 33},
	}
	for _, cfg := range geometries {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("size=%d/ways=%d/seed=%d", cfg.SizeBytes, cfg.Ways, seed)
			t.Run(name, func(t *testing.T) { checkAgainstReference(t, cfg, seed) })
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed int64) {
	m := cycles.DefaultModel()
	c := New(m, cfg)
	ref := newRefLLC(m, c, cfg.EPCLimit)
	ct, rt := cycles.NewThread(1, m), cycles.NewThread(2, m)
	rng := rand.New(rand.NewSource(seed))

	sets, ways := uint64(c.Sets()), c.Ways()
	perShard := max(sets/shardCount, 1)
	shards := min(sets, shardCount)
	maxLines := 3*int(min(perShard, 64)) + 2
	addr := func() uint64 {
		set := rng.Uint64() % sets
		if rng.Intn(2) == 0 {
			boundary := (1 + rng.Uint64()%shards) * perShard
			set = boundary - 1 - rng.Uint64()%min(4, boundary)
		}
		k := rng.Uint64() % uint64(2*ways)
		return (k*sets+set)*LineSize + rng.Uint64()%LineSize
	}

	for op := 0; op < 4000; op++ {
		cos := CoS(rng.Intn(int(numCoS)))
		write := rng.Intn(2) == 0
		cBefore, rBefore := ct.Cycles(), rt.Cycles()
		var desc string
		switch p := rng.Intn(100); {
		case p < 40:
			a := addr()
			desc = fmt.Sprintf("Access(%d, %#x, %v)", cos, a, write)
			if got, want := c.Access(ct, cos, a, write), ref.access(rt, cos, a, write); got != want {
				t.Fatalf("op %d: %s hit=%v, reference %v", op, desc, got, want)
			}
		case p < 75:
			a, n := addr(), 1+rng.Intn(maxLines*LineSize)
			desc = fmt.Sprintf("AccessRange(%d, %#x, %d, %v)", cos, a, n, write)
			c.AccessRange(ct, cos, a, n, write)
			ref.accessRange(rt, cos, a, n, write)
		case p < 92:
			a, n := addr(), 1+rng.Intn(maxLines*LineSize)
			desc = fmt.Sprintf("InstallRange(%d, %#x, %d)", cos, a, n)
			c.InstallRange(ct, cos, a, n)
			ref.installRange(rt, cos, a, n)
		case p < 96:
			w := 1 + rng.Intn(ways-1)
			desc = fmt.Sprintf("EnablePartitioning(%d)", w)
			c.EnablePartitioning(w)
			ref.enable(w)
		case p < 99:
			desc = "DisablePartitioning()"
			c.DisablePartitioning()
			ref.disable()
		default:
			desc = "Invalidate()"
			c.Invalidate()
			ref.invalidate()
		}
		if got, want := ct.Cycles()-cBefore, rt.Cycles()-rBefore; got != want {
			t.Fatalf("op %d: %s charged %d cycles, reference %d", op, desc, got, want)
		}
		if got := c.Stats(); got != ref.stats {
			t.Fatalf("op %d: %s left stats %+v, reference %+v", op, desc, got, ref.stats)
		}
	}
	// The sequence must have exercised every outcome the model counts.
	st := ref.stats
	if st.Hits == 0 || st.Evictions == 0 || st.EPCMisses == 0 || st.EPCMisses == st.Misses {
		t.Fatalf("sequence too narrow: %+v", st)
	}
}

// TestConcurrentRangesAndPartitioning runs overlapping ranges from
// several threads while another goroutine toggles partitioning: no
// probe may be lost from the counters, and once partitioning settles at
// four RPC ways, RPC-class streams from several threads must never hold
// more than four lines of any set.
func TestConcurrentRangesAndPartitioning(t *testing.T) {
	m := cycles.DefaultModel()
	c := New(m, Config{SizeBytes: 256 << 10, Ways: 16, EPCLimit: 128 << 10})
	const workers, iters = 4, 200

	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				c.EnablePartitioning(1 + i%15)
			} else {
				c.DisablePartitioning()
			}
			runtime.Gosched()
		}
	}()

	// run starts one goroutine per worker, each with its own thread,
	// and waits for all of them.
	run := func(body func(th *cycles.Thread, rng *rand.Rand)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				body(cycles.NewThread(w, m), rand.New(rand.NewSource(int64(w))))
			}(w)
		}
		wg.Wait()
	}

	var probed atomic.Uint64
	run(func(th *cycles.Thread, rng *rand.Rand) {
		var lines uint64
		for i := 0; i < iters; i++ {
			// Every worker draws from the same 512 KiB window.
			paddr := uint64(rng.Intn(512 << 10))
			n := 1 + rng.Intn(16<<10)
			lines += (paddr+uint64(n)-1)/LineSize - paddr/LineSize + 1
			cos := CoS(rng.Intn(int(numCoS)))
			if rng.Intn(3) == 0 {
				c.InstallRange(th, cos, paddr, n)
			} else {
				c.AccessRange(th, cos, paddr, n, rng.Intn(2) == 0)
			}
		}
		probed.Add(lines)
	})
	close(stop)
	toggler.Wait()
	if st := c.Stats(); st.Hits+st.Misses != probed.Load() {
		t.Fatalf("Hits+Misses = %d, %d lines probed", st.Hits+st.Misses, probed.Load())
	}

	// RPC-class lines come from a region nothing above touched, twice
	// the cache's size, streamed from staggered offsets.
	c.EnablePartitioning(4)
	const rpcBase = phys.HostBase
	span := 2 * c.SizeBytes()
	run(func(th *cycles.Thread, rng *rand.Rand) {
		for i := 0; i < 8; i++ {
			off := rng.Intn(span)
			c.AccessRange(th, CoSRPC, rpcBase+uint64(off), span-off, false)
		}
	})
	rpcFirst, rpcEnd := uint32(rpcBase/LineSize+1), uint32((rpcBase+uint64(span))/LineSize+1)
	held := 0
	for i := range c.shards {
		sh := &c.shards[i]
		for s := range sh.sets {
			inSet := 0
			for w, tag := range sh.sets[s].tags {
				if valid := sh.sets[s].valid>>uint(w)&1 != 0; valid != (tag != 0) {
					t.Fatalf("way %d holds tag %#x but its valid bit is %v", w, tag, valid)
				}
				if tag < rpcFirst || tag >= rpcEnd {
					continue
				}
				inSet++
				if w >= 4 {
					t.Fatalf("RPC line %#x in way %d outside its 4-way mask", uint64(tag-1)*LineSize, w)
				}
			}
			if inSet > 4 {
				t.Fatalf("RPC class holds %d lines of one set", inSet)
			}
			held += inSet
		}
	}
	if held == 0 {
		t.Fatal("no RPC-class line cached")
	}
}

// TestStatsSeeWholeCalls streams 232 KiB ranges, each spanning several
// shards, on one goroutine while another reads Stats. A call publishes
// its outcomes in one step, so every snapshot holds whole calls:
// Hits+Misses is always a multiple of the range's line count.
func TestStatsSeeWholeCalls(t *testing.T) {
	c, th := newLLC(t)
	const n = 232 << 10
	const lines = n / LineSize
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 64 ranges span twice the cache, so calls keep missing.
		for i := 0; i < 256; i++ {
			c.AccessRange(th, CoSEnclave, phys.HostBase+uint64(i%64)*n, n, false)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if st := c.Stats(); (st.Hits+st.Misses)%lines != 0 {
			t.Fatalf("Stats saw part of a call: Hits+Misses = %d, not a multiple of %d", st.Hits+st.Misses, lines)
		}
	}
	if st := c.Stats(); st.Hits+st.Misses != 256*lines || st.Misses == 0 {
		t.Fatalf("after the stream: %+v, want %d lines probed and some misses", st, 256*lines)
	}
}
