package eleos

import (
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/pserver"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// The simulator's core promise: virtual time is deterministic. Two
// fresh platforms running the same seeded workload must report
// identical cycle counts, fault counts and in-enclave time — this is
// what makes the benchmark outputs comparable across machines and runs.

// runDeterministicWorkload builds a platform, serves seeded requests
// against a SUVM-backed parameter server, and returns the fingerprint
// of every counter the harness reports.
func runDeterministicWorkload(t *testing.T) [6]uint64 {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	heap, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 4 << 20, BackingBytes: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exitio.NewEngine(exitio.ModeOCall, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pserver.New(plat, th, pserver.Config{
		DataBytes: 16 << 20,
		Layout:    kv.Chaining,
		Placement: pserver.PlaceSUVM,
		Heap:      heap,
		Engine:    eng,
		Encrypted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gen := loadgen.NewKeyGen(12345, srv.Entries())
	keys := make([]uint64, 4)
	for i := 0; i < 2000; i++ {
		if err := srv.ServeRequest(th, gen.Batch(keys)); err != nil {
			t.Fatal(err)
		}
	}
	hs := heap.Stats()
	ds := plat.Driver.Stats()
	return [6]uint64{
		th.T.Cycles(),
		th.SyncEnclaveCycles(),
		hs.MajorFaults,
		hs.FaultCycles,
		ds.Faults,
		plat.LLC.Stats().Misses,
	}
}

func TestVirtualTimeIsDeterministic(t *testing.T) {
	a := runDeterministicWorkload(t)
	b := runDeterministicWorkload(t)
	if a != b {
		t.Fatalf("identical seeded runs diverged:\n run1=%v\n run2=%v", a, b)
	}
	if a[0] == 0 || a[2] == 0 {
		t.Fatalf("degenerate run: %v", a)
	}
}

func TestVirtualTimeIndependentOfHostTiming(t *testing.T) {
	// Loading the host machine between operations must not change any
	// virtual counter: two fresh environments run the same seeded
	// workload, one with garbage host work interleaved.
	run := func(burnHost bool) uint64 {
		plat, _ := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 16 << 20})
		encl, _ := plat.NewEnclave()
		th := encl.NewThread()
		th.Enter()
		heap, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 1 << 20, BackingBytes: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		p, _ := heap.Malloc(8 << 20)
		buf := make([]byte, 4096)
		th.T.Reset()
		sink := 0
		for i := 0; i < 500; i++ {
			off := uint64((i * 2654435761) % (8 << 20 / 4096))
			_ = p.WriteAt(th, off*4096, buf)
			if burnHost {
				for j := 0; j < 10000; j++ {
					sink += j
				}
			}
		}
		_ = sink
		return th.T.Cycles()
	}
	fast := run(false)
	slow := run(true)
	if fast != slow {
		t.Fatalf("host CPU load leaked into virtual time: %d vs %d", fast, slow)
	}
}
