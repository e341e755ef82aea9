package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"eleos/internal/cycles"
)

func newTLB(t testing.TB) (*TLB, *cycles.Thread) {
	t.Helper()
	m := cycles.DefaultModel()
	return New(m, Config{}), cycles.NewThread(1, m)
}

func TestMissThenHit(t *testing.T) {
	tl, th := newTLB(t)
	if tl.Access(th, 100, false) {
		t.Fatal("cold translation hit")
	}
	if !tl.Access(th, 100, false) {
		t.Fatal("warm translation missed")
	}
	if tl.Misses() != 1 {
		t.Fatalf("miss count %d", tl.Misses())
	}
}

func TestWalkCostsFollowModel(t *testing.T) {
	tl, th := newTLB(t)
	m := th.Model()
	before := th.Cycles()
	tl.Access(th, 1, false)
	if got := th.Cycles() - before; got != m.TLBMiss {
		t.Fatalf("host walk charged %d, want %d", got, m.TLBMiss)
	}
	before = th.Cycles()
	tl.Access(th, 2, true)
	if got := th.Cycles() - before; got != m.TLBMissEPC {
		t.Fatalf("EPC walk charged %d, want %d", got, m.TLBMissEPC)
	}
}

func TestFlushEPCKeepsHostEntries(t *testing.T) {
	tl, th := newTLB(t)
	tl.Access(th, 10, false) // host
	tl.Access(th, 20, true)  // enclave
	tl.FlushEPC()
	if !tl.Contains(10) {
		t.Fatal("host translation lost on enclave flush")
	}
	if tl.Contains(20) {
		t.Fatal("enclave translation survived flush")
	}
}

func TestFullFlush(t *testing.T) {
	tl, th := newTLB(t)
	tl.Access(th, 10, false)
	tl.Access(th, 20, true)
	tl.Flush()
	if tl.Contains(10) || tl.Contains(20) {
		t.Fatal("translations survived full flush")
	}
	if tl.Flushes() != 1 {
		t.Fatalf("flush count %d", tl.Flushes())
	}
}

func TestInvalidateSingle(t *testing.T) {
	tl, th := newTLB(t)
	tl.Access(th, 30, true)
	tl.Access(th, 31, true)
	tl.Invalidate(30)
	if tl.Contains(30) {
		t.Fatal("invalidated entry present")
	}
	if !tl.Contains(31) {
		t.Fatal("unrelated entry dropped")
	}
}

func TestCapacityEviction(t *testing.T) {
	tl, th := newTLB(t)
	// Touch far more pages than the TLB holds; early pages must be
	// evicted and re-miss.
	const span = 8192
	for vp := uint64(0); vp < span; vp++ {
		tl.Access(th, vp, false)
	}
	m0 := tl.Misses()
	for vp := uint64(0); vp < span; vp++ {
		tl.Access(th, vp, false)
	}
	if tl.Misses() == m0 {
		t.Fatal("no capacity misses on an 8192-page working set")
	}
}

// refTLB is the sweep-flush TLB the epoch-flush TLB must reproduce
// exactly: a valid bit per entry, cleared entry by entry on every flush.
type refTLB struct {
	model   *cycles.Model
	sets    [][]refEntry
	rr      []uint8
	mask    uint64
	misses  uint64
	flushes uint64
}

type refEntry struct {
	vpage uint64
	valid bool
	epc   bool
}

func newRefTLB(m *cycles.Model, sets, ways int) *refTLB {
	r := &refTLB{model: m, sets: make([][]refEntry, sets), rr: make([]uint8, sets), mask: uint64(sets - 1)}
	for i := range r.sets {
		r.sets[i] = make([]refEntry, ways)
	}
	return r
}

func (r *refTLB) access(th *cycles.Thread, vpage uint64, epc bool) bool {
	if r.contains(vpage) {
		return true
	}
	r.misses++
	if epc {
		th.Charge(r.model.TLBMissEPC)
	} else {
		th.Charge(r.model.TLBMiss)
	}
	idx := vpage & r.mask
	s := r.sets[idx]
	way := r.rr[idx]
	r.rr[idx] = uint8((int(way) + 1) % len(s))
	s[way] = refEntry{vpage: vpage, valid: true, epc: epc}
	return false
}

func (r *refTLB) contains(vpage uint64) bool {
	for _, e := range r.sets[vpage&r.mask] {
		if e.valid && e.vpage == vpage {
			return true
		}
	}
	return false
}

func (r *refTLB) invalidate(vpage uint64) {
	s := r.sets[vpage&r.mask]
	for i := range s {
		if s[i].valid && s[i].vpage == vpage {
			s[i].valid = false
		}
	}
}

func (r *refTLB) flush(epcOnly bool) {
	r.flushes++
	for _, s := range r.sets {
		for i := range s {
			if s[i].epc || !epcOnly {
				s[i].valid = false
			}
		}
	}
}

// TestMatchesReferenceModel drives the TLB and the sweep-flush
// reference with the same seeded random operation sequences and
// requires identical hits, Contains answers, cycles charged and
// counters after every operation. Pages are drawn from twice the entry
// count, so sets overflow.
func TestMatchesReferenceModel(t *testing.T) {
	geometries := []Config{{}, {Entries: 64, Ways: 4}, {Entries: 100, Ways: 3}, {Entries: 8, Ways: 8}}
	for _, cfg := range geometries {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("entries=%d/ways=%d/seed=%d", cfg.Entries, cfg.Ways, seed)
			t.Run(name, func(t *testing.T) { checkAgainstReference(t, cfg, seed, 2*len(New(nil, cfg).entries)) })
		}
	}
}

// TestHintMatchesReferenceModel drives the reference comparison with
// three pages per set, fewer than any set's ways, so that most lookups
// hit: on the set's hinted way, or on another one.
func TestHintMatchesReferenceModel(t *testing.T) {
	for _, cfg := range []Config{{}, {Entries: 64, Ways: 4}, {Entries: 96, Ways: 6}} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("entries=%d/ways=%d/seed=%d", cfg.Entries, cfg.Ways, seed)
			t.Run(name, func(t *testing.T) { checkAgainstReference(t, cfg, seed, 3*len(New(nil, cfg).rr)) })
		}
	}
}

// checkAgainstReference runs the comparison over pages drawn from
// [0, pages). It also requires both kinds of hit: on the set's hinted
// way, and found by the scan.
func checkAgainstReference(t *testing.T, cfg Config, seed int64, pages int) {
	m := cycles.DefaultModel()
	tl := New(m, cfg)
	ref := newRefTLB(m, len(tl.rr), tl.ways)
	tt, rt := cycles.NewThread(1, m), cycles.NewThread(2, m)
	rng := rand.New(rand.NewSource(seed))
	var hits, flushedHits, hintHits int
	for op := 0; op < 20000; op++ {
		vpage := rng.Uint64() % uint64(pages)
		epc := rng.Intn(2) == 0
		var desc string
		switch p := rng.Intn(100); {
		case p < 70:
			desc = fmt.Sprintf("Access(%d, %v)", vpage, epc)
			if tl.live(&tl.set(vpage)[tl.hint[vpage&tl.mask]], vpage) {
				hintHits++
			}
			got, want := tl.Access(tt, vpage, epc), ref.access(rt, vpage, epc)
			if got != want {
				t.Fatalf("op %d: %s hit=%v, reference %v", op, desc, got, want)
			}
			if got {
				hits++
				if ref.flushes != 0 {
					flushedHits++
				}
			}
		case p < 85:
			desc = fmt.Sprintf("Contains(%d)", vpage)
			if got, want := tl.Contains(vpage), ref.contains(vpage); got != want {
				t.Fatalf("op %d: %s = %v, reference %v", op, desc, got, want)
			}
		case p < 93:
			desc = fmt.Sprintf("Invalidate(%d)", vpage)
			tl.Invalidate(vpage)
			ref.invalidate(vpage)
		case p < 97:
			desc = "FlushEPC()"
			tl.FlushEPC()
			ref.flush(true)
		default:
			desc = "Flush()"
			tl.Flush()
			ref.flush(false)
		}
		if tt.Cycles() != rt.Cycles() {
			t.Fatalf("op %d: %s left %d cycles charged, reference %d", op, desc, tt.Cycles(), rt.Cycles())
		}
		if tl.Misses() != ref.misses || tl.Flushes() != ref.flushes {
			t.Fatalf("op %d: %s left misses %d flushes %d, reference %d and %d",
				op, desc, tl.Misses(), tl.Flushes(), ref.misses, ref.flushes)
		}
	}
	if hits == 0 || flushedHits == 0 || ref.misses == 0 || hintHits == 0 || hintHits == hits {
		t.Fatalf("sequence too narrow: %d hits (%d after a flush, %d on the hint), %d misses",
			hits, flushedHits, hintHits, ref.misses)
	}
}

// TestAccessZeroAlloc pins the //eleos:hotpath budget=0 contract of
// Access dynamically, on hits and misses.
func TestAccessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	tl, th := newTLB(t)
	var vpage uint64
	allocs := testing.AllocsPerRun(1000, func() {
		tl.Access(th, vpage, vpage%2 == 0)
		tl.Access(th, vpage, vpage%2 == 0)
		vpage++
	})
	if allocs != 0 {
		t.Fatalf("TLB Access allocates %.1f per op, budget is 0", allocs)
	}
}
