package suvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// goldenWorkload runs a fixed seeded single-threaded paging workload —
// random 4K accesses over a working set 4x EPC++, reads and writes,
// exercising major faults, eviction, write-back and clean drops — and
// returns a fingerprint of the virtual clock and every paging counter.
func goldenWorkload(t *testing.T, pol EvictionPolicy) [6]uint64 {
	t.Helper()
	cfg := Config{PageCacheBytes: 1 << 20, BackingBytes: 64 << 20, Policy: pol}
	e := newEnv(t, cfg)
	p, err := e.h.Malloc(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for off := uint64(0); off < p.Size(); off += 4096 {
		if err := p.WriteAt(e.th, off, buf); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(271828))
	for i := 0; i < 3000; i++ {
		off := uint64(rng.Intn(int(p.Size()/4096))) * 4096
		var err error
		if i%3 == 0 {
			err = p.WriteAt(e.th, off, buf)
		} else {
			err = p.ReadAt(e.th, off, buf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.h.Stats()
	return [6]uint64{
		e.th.T.Cycles(),
		st.MajorFaults,
		st.MinorFaults,
		st.Evictions,
		st.WriteBacks,
		st.FaultCycles,
	}
}

// Golden fingerprints captured from the pre-refactor (global-faultMu)
// SUVM engine at commit bd759c5. The concurrent fault pipeline must
// leave the single-threaded virtual-cycle accounting bit-identical:
// same charge sequence, same victim selection, same frame-allocation
// order. Any divergence here means single-threaded benches (fig7a,
// fig8a/b, tab3, pflat) are no longer comparable to earlier runs.
var goldenFingerprints = map[EvictionPolicy][6]uint64{
	PolicyClock:  {57432604, 3282, 742, 3026, 1826, 38053224},
	PolicyFIFO:   {57501468, 3276, 748, 3020, 1840, 38122448},
	PolicyRandom: {56619822, 3234, 790, 2978, 1785, 37235072},
}

func TestSingleThreadCyclesMatchSeed(t *testing.T) {
	for pol, want := range goldenFingerprints {
		pol, want := pol, want
		t.Run(pol.String(), func(t *testing.T) {
			got := goldenWorkload(t, pol)
			if got != want {
				t.Fatalf("single-threaded fingerprint diverged from seed:\n got  %v\n want %v\n(fields: cycles, major, minor, evictions, writebacks, faultCycles)", got, want)
			}
		})
	}
}

// goldenSwapperWorkload is goldenWorkload with a manual swapper tick
// interleaved every 250 accesses, exercising the reclaim path that puts
// frames back into the sharded pool (and with it a frame-allocation
// order the pre-refactor global stack never produced — see the
// framePool comment in evictor.go).
func goldenSwapperWorkload(t *testing.T, pol EvictionPolicy) [6]uint64 {
	t.Helper()
	cfg := Config{PageCacheBytes: 1 << 20, BackingBytes: 64 << 20, Policy: pol}
	e := newEnv(t, cfg)
	sw := e.h.NewSwapper()
	p, err := e.h.Malloc(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for off := uint64(0); off < p.Size(); off += 4096 {
		if err := p.WriteAt(e.th, off, buf); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(271828))
	for i := 0; i < 3000; i++ {
		if i%250 == 0 {
			sw.TickNow()
		}
		off := uint64(rng.Intn(int(p.Size()/4096))) * 4096
		var err error
		if i%3 == 0 {
			err = p.WriteAt(e.th, off, buf)
		} else {
			err = p.ReadAt(e.th, off, buf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.h.Stats()
	return [6]uint64{
		e.th.T.Cycles(),
		st.MajorFaults,
		st.MinorFaults,
		st.Evictions,
		st.WriteBacks,
		st.FaultCycles,
	}
}

// Fingerprints of the swapper-interleaved workload, captured from the
// fault pipeline itself (there is no pre-refactor baseline for these:
// the old engine's global LIFO free stack allocated reclaimed frames in
// a different order, so seed-comparability deliberately excludes
// manual-swapper runs). They pin that deterministic reclaim-mixed runs
// stay bit-identical from build to build.
var goldenSwapperFingerprints = map[EvictionPolicy][6]uint64{
	PolicyClock:  {57046510, 3282, 742, 3026, 1826, 37667130},
	PolicyFIFO:   {57089500, 3277, 747, 3021, 1840, 37710420},
	PolicyRandom: {56549656, 3264, 760, 3008, 1799, 37163106},
}

func TestManualSwapperRunsDeterministic(t *testing.T) {
	for pol, want := range goldenSwapperFingerprints {
		pol, want := pol, want
		t.Run(pol.String(), func(t *testing.T) {
			got := goldenSwapperWorkload(t, pol)
			if got != want {
				t.Fatalf("swapper-interleaved fingerprint diverged:\n got  %v\n want %v\n(fields: cycles, major, minor, evictions, writebacks, faultCycles)", got, want)
			}
		})
	}
}

// TestGoldenPrint prints the current fingerprints; used to (re)capture
// the constants above when the cost model itself changes intentionally.
func TestGoldenPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("capture helper")
	}
	for _, pol := range []EvictionPolicy{PolicyClock, PolicyFIFO, PolicyRandom} {
		fmt.Printf("%s: %v swapper: %v\n", pol, goldenWorkload(t, pol), goldenSwapperWorkload(t, pol))
	}
}

// resizeGoldenStep fingerprints one ResizeTo of the resize golden: the
// error it returned, then the heap's geometry, the resizing thread's
// virtual clock, the enclave's PRM residency and the paging counters.
type resizeGoldenStep struct {
	err                                         string
	active                                      int
	cycles                                      uint64
	resident                                    int
	resizes, evictions, writeBacks, majorFaults uint64
}

// resizeGoldenWorkload drives a heap with no carved domains through a
// fixed ResizeTo sequence — shrink, shrink, grow past capacity, shrink
// below the 4-frame floor, grow to an odd size — over a dirty working
// set twice EPC++. The page cache is frames*pageSize plus 1000 bytes,
// never a 4 KiB multiple, and at 512-byte pages the frame region ends
// inside a 4 KiB EPC page, so the released and re-pinned EPC ranges
// exercise both alignment edges. After every step each page is read
// back and checked, then every third page is rewritten.
func resizeGoldenWorkload(t *testing.T, pageSize, frames int) []resizeGoldenStep {
	t.Helper()
	e := newEnv(t, Config{
		PageCacheBytes: uint64(frames*pageSize + 1000),
		PageSize:       pageSize,
		SubPageSize:    512,
		BackingBytes:   64 << 20,
	})
	pages := 2 * frames
	p, err := e.h.Malloc(uint64(pages * pageSize))
	if err != nil {
		t.Fatal(err)
	}
	version := make([]byte, pages)
	content := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i*7) ^ version[i]}, pageSize)
	}
	write := func(i int) {
		t.Helper()
		version[i]++
		if err := p.WriteAt(e.th, uint64(i*pageSize), content(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		write(i)
	}
	ps := uint64(pageSize)
	targets := []uint64{
		uint64(frames) * ps * 3 / 4,
		uint64(frames) * ps / 3,
		uint64(frames) * ps * 2,
		ps,
		uint64(frames/2+1) * ps,
	}
	got := make([]byte, pageSize)
	var steps []resizeGoldenStep
	for _, target := range targets {
		err := e.h.ResizeTo(e.th, target)
		st := e.h.Stats()
		s := resizeGoldenStep{
			active:      e.h.ActiveFrames(),
			cycles:      e.th.T.Cycles(),
			resident:    e.encl.ResidentPages(),
			resizes:     st.Resizes,
			evictions:   st.Evictions,
			writeBacks:  st.WriteBacks,
			majorFaults: st.MajorFaults,
		}
		if err != nil {
			s.err = err.Error()
		}
		steps = append(steps, s)
		checkFrames(t, e.h)
		for i := 0; i < pages; i++ {
			if err := p.ReadAt(e.th, uint64(i*pageSize), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content(i)) {
				t.Fatalf("page %d lost its data across ResizeTo(%d)", i, target)
			}
		}
		for i := 0; i < pages; i += 3 {
			write(i)
		}
	}
	return steps
}

// resizeGoldenGeometries maps each SUVM page size to the frames argument
// of its resize golden (at 512-byte pages the 1000-byte tail adds one
// more frame: 78).
var resizeGoldenGeometries = map[int]int{512: 77, 4096: 40, 65536: 12}

// Golden fingerprints of resizeGoldenWorkload, captured from the
// domain-less ResizeTo path before the root heap became an ordinary
// domain. They pin the virtual cost of ballooning a heap that never
// carves a service domain — the path every single-service enclave and
// every fleet rebalance takes.
var resizeGoldenFingerprints = map[int][]resizeGoldenStep{
	512: {
		{"", 57, 756368, 11, 1, 97, 97, 154},
		{"", 25, 1295864, 7, 2, 331, 182, 356},
		{"", 78, 1931900, 17, 3, 536, 233, 561},
		{"", 4, 2449976, 4, 4, 749, 308, 753},
		{"", 39, 3058832, 13, 5, 955, 358, 959},
	},
	4096: {
		{"", 30, 2028500, 31, 1, 50, 50, 80},
		{"", 13, 3606222, 14, 2, 172, 94, 185},
		{"", 40, 5840554, 68, 3, 279, 121, 292},
		{"", 4, 7391226, 5, 4, 388, 160, 392},
		{"", 21, 9326464, 47, 5, 495, 184, 499},
	},
	65536: {
		{"", 9, 9102730, 145, 1, 15, 15, 24},
		{"", 4, 16300392, 65, 2, 52, 28, 56},
		{"", 12, 26570232, 321, 3, 84, 36, 88},
		{"", 4, 33526796, 65, 4, 114, 47, 118},
		{"", 7, 41213294, 209, 5, 146, 52, 150},
	},
}

func TestResizeGolden(t *testing.T) {
	for ps, frames := range resizeGoldenGeometries {
		ps, frames := ps, frames
		t.Run(fmt.Sprint(ps), func(t *testing.T) {
			got := resizeGoldenWorkload(t, ps, frames)
			want := resizeGoldenFingerprints[ps]
			if len(got) != len(want) {
				t.Fatalf("resize golden ran %d steps, want %d:\n got  %+v", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("resize golden step %d diverged:\n got  %+v\n want %+v", i, got[i], want[i])
				}
			}
		})
	}
}
