package epoch

import (
	"math/rand"
	"testing"
)

// vote is one epoch of a streak drive: a vote for key with the given
// need, or, when hold is set, an epoch that wants no change (Reset).
type vote struct {
	key  int
	need int
	hold bool
}

// The three vote sequences the controllers produce, epoch by epoch, with
// the fires and running counts they must see.
func TestStreakControllerSequences(t *testing.T) {
	const grow, shrink = 1, -1
	g := func(need int) vote { return vote{key: grow, need: need} }
	s := func(need int) vote { return vote{key: shrink, need: need} }
	m := func(advice int) vote { return vote{key: advice, need: 2} }
	hold := vote{hold: true}
	cases := []struct {
		name   string
		votes  []vote
		fires  []bool
		counts []int
	}{
		{
			// tune's resize votes at the default Hysteresis 2 /
			// ShrinkHysteresis 4: key = direction, a direction change
			// restarts the count, a target equal to the pool resets it.
			name:   "tune resize",
			votes:  []vote{g(2), g(2), g(2), s(4), s(4), s(4), s(4), hold, g(2), s(4), g(2), g(2)},
			fires:  []bool{false, true, false, false, false, false, true, false, false, false, false, true},
			counts: []int{1, 0, 1, 1, 2, 3, 0, 0, 1, 1, 1, 0},
		},
		{
			// tune's mode votes at Hysteresis 1 (need max(1, 2) = 2):
			// key = wanted advice, an epoch wanting the current advice
			// resets. Advice starts at 0: wants 1 1 | 1 (now current)
			// | 0 2 2 | 1 1.
			name:   "tune mode advice",
			votes:  []vote{m(1), m(1), hold, m(0), m(2), m(2), m(1), m(1)},
			fires:  []bool{false, true, false, false, false, true, false, true},
			counts: []int{1, 0, 0, 1, 1, 0, 1, 0},
		},
		{
			// fleet's single rebalance counter (one key) at hysteresis 2
			// / shrinkHysteresis 4: need switches mid-streak with the
			// proposal, and the running count carries across the switch.
			name: "fleet rebalance",
			votes: []vote{
				{need: 4}, {need: 4}, {need: 4}, {need: 2}, // shrinks, then grow-only: fires at the grow need
				hold,
				{need: 2}, {need: 4}, {need: 4}, {need: 4}, // grow-only, then shrinks: fires at 4
				{need: 2}, {need: 2},
			},
			fires:  []bool{false, false, false, true, false, false, false, false, true, false, true},
			counts: []int{1, 2, 3, 0, 0, 1, 2, 3, 0, 1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st Streak[int]
			for i, v := range tc.votes {
				fired := false
				if v.hold {
					st.Reset()
				} else {
					fired = st.Vote(v.key, v.need)
				}
				if fired != tc.fires[i] || st.Count() != tc.counts[i] {
					t.Fatalf("epoch %d (%+v): fired=%v count=%d, want fired=%v count=%d",
						i, v, fired, st.Count(), tc.fires[i], tc.counts[i])
				}
			}
		})
	}
}

// The vote counters the two controllers carried before they shared the
// streak, kept as references. Each takes one epoch's input and reports
// whether the controller acted.

type refResize struct{ growVotes, shrinkVotes int }

// dir is +1 (target above the pool), -1 (below) or 0 (equal).
func (r *refResize) epoch(dir, hysteresis, shrinkHysteresis int) bool {
	switch {
	case dir > 0:
		r.growVotes++
		r.shrinkVotes = 0
		if r.growVotes >= hysteresis {
			r.growVotes = 0
			return true
		}
	case dir < 0:
		r.shrinkVotes++
		r.growVotes = 0
		if r.shrinkVotes >= shrinkHysteresis {
			r.shrinkVotes = 0
			return true
		}
	default:
		r.growVotes, r.shrinkVotes = 0, 0
	}
	return false
}

type refMode struct{ advice, want, votes int }

func (r *refMode) epoch(want, hysteresis int) bool {
	if want == r.advice {
		r.votes = 0
		r.want = want
		return false
	}
	if want != r.want {
		r.want = want
		r.votes = 1
		return false
	}
	r.votes++
	if r.votes < hysteresis {
		return false
	}
	r.votes = 0
	r.advice = want
	return true
}

type refFleet struct{ votes int }

// kind is 0 (no deviation), 1 (grow-only) or 2 (some tenant shrinks).
func (r *refFleet) epoch(kind, hysteresis, shrinkHysteresis int) bool {
	if kind == 0 {
		r.votes = 0
		return false
	}
	r.votes++
	needed := hysteresis
	if kind == 2 {
		needed = shrinkHysteresis
	}
	if r.votes >= needed {
		r.votes = 0
		return true
	}
	return false
}

// Random epoch inputs through the references and through the streak as
// tune and fleet drive it: every epoch must agree.
func TestStreakMatchesReferenceCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, h := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {2, 4}, {3, 5}} {
		hyst, shrinkHyst := h[0], h[1]

		var resizeRef refResize
		var resize Streak[bool]
		modeRef := refMode{}
		var mode Streak[int]
		advice := 0
		var fleetRef refFleet
		var fleet Streak[struct{}]

		for i := 0; i < 20_000; i++ {
			dir := rng.Intn(3) - 1
			want := resizeRef.epoch(dir, hyst, shrinkHyst)
			got := false
			if dir == 0 {
				resize.Reset()
			} else {
				need := shrinkHyst
				if dir > 0 {
					need = hyst
				}
				got = resize.Vote(dir > 0, need)
			}
			if got != want {
				t.Fatalf("hysteresis %v, epoch %d: resize streak fired=%v, reference %v", h, i, got, want)
			}

			wanted := rng.Intn(3)
			want = modeRef.epoch(wanted, hyst)
			got = false
			if wanted == advice {
				mode.Reset()
			} else if mode.Vote(wanted, max(hyst, 2)) {
				advice, got = wanted, true
			}
			if got != want || advice != modeRef.advice {
				t.Fatalf("hysteresis %v, epoch %d: mode streak fired=%v advice=%d, reference %v advice=%d",
					h, i, got, advice, want, modeRef.advice)
			}

			kind := rng.Intn(3)
			want = fleetRef.epoch(kind, hyst, shrinkHyst)
			got = false
			if kind == 0 {
				fleet.Reset()
			} else {
				need := hyst
				if kind == 2 {
					need = shrinkHyst
				}
				got = fleet.Vote(struct{}{}, need)
			}
			if got != want || fleet.Count() != fleetRef.votes {
				t.Fatalf("hysteresis %v, epoch %d: fleet streak fired=%v count=%d, reference %v count=%d",
					h, i, got, fleet.Count(), want, fleetRef.votes)
			}
		}
	}
}

func TestClockBaselineAndBoundary(t *testing.T) {
	c := Clock{Every: 100}
	steps := []struct {
		now     uint64
		tick    Tick
		elapsed uint64
		epochs  uint64
	}{
		{now: 50, tick: Baseline},                       // first tick: baseline only, whatever the clock reads
		{now: 50, tick: Idle},                           // no time elapsed
		{now: 149, tick: Idle},                          // one cycle short of the boundary
		{now: 150, tick: Fire, elapsed: 100, epochs: 1}, // exactly at the boundary
		{now: 151, tick: Idle, epochs: 1},               // the boundary moved to 150
		{now: 400, tick: Fire, elapsed: 250, epochs: 2}, // a late tick fires once, with the full elapsed span
		{now: 499, tick: Idle, epochs: 2},
		{now: 500, tick: Fire, elapsed: 100, epochs: 3},
	}
	for i, s := range steps {
		tick, elapsed := c.Tick(s.now)
		if tick != s.tick || elapsed != s.elapsed || c.Epochs() != s.epochs {
			t.Fatalf("step %d at %d: tick=%d elapsed=%d epochs=%d, want tick=%d elapsed=%d epochs=%d",
				i, s.now, tick, elapsed, c.Epochs(), s.tick, s.elapsed, s.epochs)
		}
	}
}

// Off-epoch ticks are the per-request cost of Ctx.Pump: no allocation.
func TestClockTickDoesNotAllocate(t *testing.T) {
	c := Clock{Every: 1 << 40}
	var now uint64
	if allocs := testing.AllocsPerRun(1000, func() {
		now++
		c.Tick(now)
	}); allocs != 0 {
		t.Fatalf("Tick allocates %v times per call", allocs)
	}
}

func TestHysteresisDefaultsAndValidation(t *testing.T) {
	ok := []struct{ grow, shrink, wantGrow, wantShrink int }{
		{0, 0, DefaultHysteresis, 2 * DefaultHysteresis},
		{1, 0, 1, 2},
		{1, 3, 1, 3},
		{2, 2, 2, 2},
		{0, 7, DefaultHysteresis, 7},
	}
	for _, c := range ok {
		g, s, err := Hysteresis(c.grow, c.shrink)
		if err != nil || g != c.wantGrow || s != c.wantShrink {
			t.Errorf("Hysteresis(%d, %d) = %d, %d, %v; want %d, %d", c.grow, c.shrink, g, s, err, c.wantGrow, c.wantShrink)
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {-1, -3}, {3, 2}, {0, 1}, {2, -1}} {
		if _, _, err := Hysteresis(bad[0], bad[1]); err == nil {
			t.Errorf("Hysteresis(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

func TestTraceStopsAtCapAndCopies(t *testing.T) {
	var tr Trace[[2]int]
	if got := tr.Copy(); len(got) != 0 {
		t.Fatalf("empty trace copied as %v", got)
	}
	for i := 0; i < traceCap+10; i++ {
		tr.Add([2]int{i, i})
	}
	got := tr.Copy()
	if len(got) != traceCap || got[0] != [2]int{0, 0} || got[traceCap-1] != [2]int{traceCap - 1, traceCap - 1} {
		t.Fatalf("trace kept %d decisions (first %v, last %v), want the first %d", len(got), got[0], got[len(got)-1], traceCap)
	}
	got[0] = [2]int{-1, -1}
	if again := tr.Copy(); again[0] != [2]int{0, 0} {
		t.Fatalf("writing a copy reached the trace: %v", again[0])
	}
}
