package eleos

import "testing"

// Consolidation golden: running three services in ONE enclave (each on
// its own carved heap domain) must charge every service exactly the
// same virtual cycles as running the same three workloads in THREE
// single-service enclaves with equal per-service EPC++. Per-service
// paging state — frame pool, evictor hand, fault and eviction counters
// — is fully domain-local, so consolidation changes only where the
// frames sit in PRM, which the cost model does not price. Any
// divergence means a service's paging behaviour leaked across the
// domain boundary.
//
// The absolute values are additionally pinned (captured on this
// machine-independent virtual clock), so the test also acts as a golden
// fingerprint for the service-domain fault path itself.

// svcGoldenFrames is each service's EPC++ carve: 128 pages = 512 KiB.
const svcGoldenFrames = 128

// svcGoldenWorkloads are the three disjoint per-service workloads:
// distinct seeds and read/write mixes over private 256 KiB working sets
// (64 pages — the measured loop runs fault-free inside the carve).
var svcGoldenWorkloads = []struct {
	name     string
	seed     uint64
	writeMod int // every writeMod-th op is a write
}{
	{"alpha", 0x5eed0001, 2},
	{"beta", 0x5eed0002, 1 << 30}, // read-only
	{"gamma", 0x5eed0003, 5},
}

// svcGoldenFingerprint is one service's measured outcome: the virtual
// cycles of its measured loop and its domain's major faults (warmup
// page-ins; the measured loop itself must not fault).
type svcGoldenFingerprint struct {
	Cycles uint64
	Faults uint64
}

// runSvcGoldenWorkload drives one service's workload on ctx: a
// sequential warmup write pass faulting the whole working set in, then
// a seeded random loop of 64-byte record accesses, returning the
// measured-loop cycle delta.
func runSvcGoldenWorkload(t *testing.T, ctx *Ctx, seed uint64, writeMod int) uint64 {
	t.Helper()
	const workBytes = 256 << 10
	const pageSize = 4096
	p, err := ctx.Malloc(workBytes)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, pageSize)
	for i := range page {
		page[i] = byte(seed) + byte(i)
	}
	for off := uint64(0); off < workBytes; off += pageSize {
		if err := p.WriteAt(off, page); err != nil {
			t.Fatal(err)
		}
	}

	rec := make([]byte, 64)
	// Re-touch every page after the faulting pass: hardware demand-zero
	// faults during warmup flush the TLB at layout-dependent points (the
	// enclave's metadata pages sit at different offsets in each
	// configuration), so without this pass the measured loop would start
	// with layout-dependent TLB residue. The re-touch is hit-only (all
	// pages resident) and leaves the TLB uniformly warm in both shapes.
	for off := uint64(0); off < workBytes; off += pageSize {
		if err := p.ReadAt(off, rec); err != nil {
			t.Fatal(err)
		}
	}
	rng := seed
	start := ctx.Cycles()
	for n := 0; n < 3000; n++ {
		// splitmix64-style step: deterministic, seed-disjoint streams.
		rng += 0x9e3779b97f4a7c15
		z := rng
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		off := (z % (workBytes / 64)) * 64
		if writeMod > 0 && n%writeMod == 0 {
			err = p.WriteAt(off, rec)
		} else {
			err = p.ReadAt(off, rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return ctx.Cycles() - start
}

// runConsolidated runs the three workloads as three services of ONE
// enclave and returns per-service fingerprints.
func runConsolidated(t *testing.T) []svcGoldenFingerprint {
	t.Helper()
	rt, err := NewRuntime(WithRPCWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	encl, err := rt.NewEnclave(EnclaveConfig{
		PageCacheBytes: uint64(3*svcGoldenFrames+8) * 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()

	svcs := make([]*Service, len(svcGoldenWorkloads))
	for i, w := range svcGoldenWorkloads {
		s, err := encl.NewService(w.name, WithServiceEPC(svcGoldenFrames*4096))
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = s
	}
	out := make([]svcGoldenFingerprint, len(svcs))
	for i, w := range svcGoldenWorkloads {
		ctx := svcs[i].NewContext()
		out[i].Cycles = runSvcGoldenWorkload(t, ctx, w.seed, w.writeMod)
		out[i].Faults = svcs[i].Stats().Heap.MajorFaults
		ctx.Close()
	}
	return out
}

// runSeparate runs the same three workloads as one service in each of
// THREE enclaves, each enclave giving its service the same EPC++ carve.
func runSeparate(t *testing.T) []svcGoldenFingerprint {
	t.Helper()
	rt, err := NewRuntime(WithRPCWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	svcs := make([]*Service, len(svcGoldenWorkloads))
	for i, w := range svcGoldenWorkloads {
		encl, err := rt.NewEnclave(EnclaveConfig{
			PageCacheBytes: uint64(svcGoldenFrames+8) * 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer encl.Destroy()
		s, err := encl.NewService(w.name, WithServiceEPC(svcGoldenFrames*4096))
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = s
	}
	out := make([]svcGoldenFingerprint, len(svcs))
	for i, w := range svcGoldenWorkloads {
		ctx := svcs[i].NewContext()
		out[i].Cycles = runSvcGoldenWorkload(t, ctx, w.seed, w.writeMod)
		out[i].Faults = svcs[i].Stats().Heap.MajorFaults
		ctx.Close()
	}
	return out
}

// goldenServiceFingerprints pins the per-service outcomes (identical in
// both configurations by construction; asserted against both).
// TestConsolidationCycleEquality prints the entry to pin on a mismatch.
var goldenServiceFingerprints = []svcGoldenFingerprint{
	{Cycles: 624000, Faults: 64}, // alpha
	{Cycles: 624000, Faults: 64}, // beta
	{Cycles: 624000, Faults: 64}, // gamma
}

func TestConsolidationCycleEquality(t *testing.T) {
	one := runConsolidated(t)
	three := runSeparate(t)
	for i, w := range svcGoldenWorkloads {
		if one[i] != three[i] {
			t.Errorf("service %s: 1x3 %+v != 3x1 %+v — consolidation changed the service's paging cost",
				w.name, one[i], three[i])
		}
		if one[i] != goldenServiceFingerprints[i] {
			t.Errorf("service %s: fingerprint %+v, pinned %+v; if the change is intended, pin:\n\t{Cycles: %d, Faults: %d}, // %s",
				w.name, one[i], goldenServiceFingerprints[i], one[i].Cycles, one[i].Faults, w.name)
		}
	}
}
