package eleos

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// The configless runtime's compatibility contract: with autotuning
// disabled, nothing about the new surface — the resizable pool, the
// per-queue mode seam, the Pump hook, the Stats tree — may move a
// single virtual cycle. And with autotuning enabled, the decision
// sequence itself must be deterministic through the full public stack.

// goldenWorkload drives a fixed seeded mix over one context — SUVM
// writes (faults + evictions), synchronous and asynchronous exit-less
// calls, and linked pwrite+fsync I/O chains — and returns the caller's
// cycle fingerprint. pump adds a Ctx.Pump call per iteration; observe
// adds a Runtime.Stats read per iteration. Neither may change a counter
// on a fixed-pool runtime.
func goldenWorkload(t *testing.T, pump, observe bool) [5]uint64 {
	t.Helper()
	rt, err := NewRuntime(
		WithMachine(MachineConfig{UsablePRMBytes: 32 << 20}),
		WithRPCWorkers(1),
		WithCATWays(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 2 << 20, Heap: HeapConfig{BackingBytes: 64 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	p, err := ctx.Malloc(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	fs := rt.NewFS()
	q := ctx.IO()
	q.Push(IOOpen{FS: fs, Name: "wal"})
	cqes, err := q.SubmitAndWait()
	if err != nil || len(cqes) != 1 || cqes[0].Err != nil {
		t.Fatalf("open: %v %+v", err, cqes)
	}
	fd := cqes[0].N

	frame := make([]byte, 512)
	for i := 0; i < 300; i++ {
		off := uint64((i * 2654435761) % (8 << 20 / 4096))
		if err := p.WriteAt(off*4096, frame); err != nil {
			t.Fatal(err)
		}
		ctx.Exitless(func(h *HostCtx) { h.Syscall(nil) })
		fut := ctx.Go(func(h *HostCtx) { h.Syscall(nil) })
		ctx.Thread().T.Charge(2_000) // compute overlapping the async call
		fut.Wait()
		q.Push(IOPwrite{FS: fs, FD: fd, Off: uint64(i) * 512, Data: frame})
		q.PushLinked(IOFsync{FS: fs, FD: fd})
		if _, err := q.SubmitAndWait(); err != nil {
			t.Fatal(err)
		}
		if pump {
			if ctx.Pump() {
				t.Fatal("Pump fired an epoch on a fixed-pool runtime")
			}
		}
		if observe {
			if st := rt.Stats(); st.Tune.Enabled {
				t.Fatal("Tune.Enabled on a fixed-pool runtime")
			}
		}
	}
	hs := rt.Stats().Heaps[0]
	return [5]uint64{
		ctx.Cycles(),
		ctx.Thread().SyncEnclaveCycles(),
		hs.MajorFaults,
		rt.Platform().Driver.Stats().Faults,
		rt.Platform().LLC.Stats().Misses,
	}
}

// With autotuning disabled the run is bit-identical however much of the
// new observability surface is exercised alongside it: the golden
// fingerprint with no Pump/Stats calls equals the fingerprint with both
// on every iteration, across repeated runs.
func TestAutotuneDisabledIsCycleNeutral(t *testing.T) {
	base := goldenWorkload(t, false, false)
	if base[0] == 0 || base[2] == 0 {
		t.Fatalf("degenerate golden run: %v", base)
	}
	if again := goldenWorkload(t, false, false); again != base {
		t.Fatalf("seeded runs diverged:\n run1=%v\n run2=%v", base, again)
	}
	if pumped := goldenWorkload(t, true, true); pumped != base {
		t.Fatalf("disabled autotune surface moved virtual cycles:\n plain=%v\n pumped=%v", base, pumped)
	}
}

// autoTuneTraceFingerprint pins the runtime-wired tuner's decision
// sequence below.
const autoTuneTraceFingerprint uint64 = 0x9b0da67966021ecf

// traceFingerprint hashes the full %+v rendering of a decision trace,
// so a pinned value catches a change to any field of any decision, not
// just disagreement between two runs.
func traceFingerprint(trace any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", trace)
	return h.Sum64()
}

// Fixed-epoch autotuning through the public stack is deterministic: the
// same bursty drive produces the same decision trace, resize for
// resize, twice over. (The internal/tune variant proves this for the
// controller alone; this one covers the runtime wiring — Pump and queue
// mode application.)
func TestAutoTuneRuntimeTraceDeterministic(t *testing.T) {
	run := func() ([]TuneDecision, string) {
		rt, err := NewRuntime(
			WithMachine(MachineConfig{UsablePRMBytes: 32 << 20}),
			WithCATWays(0),
			WithAutoTune(TunePolicy{
				EpochCycles:      300_000,
				MinWorkers:       1,
				MaxWorkers:       4,
				Hysteresis:       2,
				ShrinkHysteresis: 2,
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 2 << 20, Heap: HeapConfig{BackingBytes: 64 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		defer encl.Destroy()
		ctx := encl.NewContext()
		defer ctx.Close()
		p, err := ctx.Malloc(8 << 20)
		if err != nil {
			t.Fatal(err)
		}

		work := func(h *HostCtx) {
			h.Syscall(nil)
			h.Thread().T.Charge(4750)
		}
		batch := make([]func(*HostCtx), 8)
		for i := range batch {
			batch[i] = work
		}
		frame := make([]byte, 512)
		for i := 0; i < 300; i++ { // busy, with paging in the mix
			ctx.ExitlessBatch(batch...)
			if err := p.WriteAt(uint64((i*2654435761)%(8<<20/4096))*4096, frame); err != nil {
				t.Fatal(err)
			}
			ctx.Pump()
		}
		for i := 0; i < 300; i++ { // quiet
			ctx.Thread().T.Charge(20_000)
			if i%16 == 0 {
				ctx.Exitless(work)
			}
			ctx.Pump()
		}
		st := rt.Stats().Tune
		return rt.Tuner().Trace(), fmt.Sprintf("epochs=%d grows=%d shrinks=%d switches=%d workers=%d",
			st.Epochs, st.Grows, st.Shrinks, st.ModeSwitches, st.Workers)
	}
	trace1, sum1 := run()
	trace2, sum2 := run()
	if len(trace1) == 0 {
		t.Fatal("drive produced no decisions")
	}
	if sum1 != sum2 {
		t.Fatalf("counter summaries diverge: %s vs %s", sum1, sum2)
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("decision traces diverge between identical runs:\n run1: %+v\n run2: %+v", trace1, trace2)
	}
	if got := traceFingerprint(trace1); got != autoTuneTraceFingerprint {
		t.Fatalf("decision trace fingerprint %#x, want %#x (%s)", got, autoTuneTraceFingerprint, sum1)
	}
	var grew, shrank bool
	for _, d := range trace1 {
		if d.Resized && d.Workers > 1 {
			grew = true
		}
		if d.Resized && d.Workers == 1 {
			shrank = true
		}
	}
	if !grew || !shrank {
		t.Fatalf("degenerate trace (grew=%v shrank=%v): %s", grew, shrank, sum1)
	}
}
