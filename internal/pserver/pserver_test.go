package pserver

import (
	"testing"

	"eleos/internal/cache"
	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

func newPlat(t testing.TB) *sgx.Platform {
	t.Helper()
	p, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newEngine builds an exit-less I/O engine for the tests (pool may be
// nil outside the RPC modes).
func newEngine(t testing.TB, mode exitio.Mode, pool *rpc.Pool) *exitio.Engine {
	t.Helper()
	eng, err := exitio.NewEngine(mode, pool)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewRequiresEngine(t *testing.T) {
	plat := newPlat(t)
	_, err := New(plat, plat.NewHostThread(cache.CoSDefault), Config{
		DataBytes: 1 << 20,
		Layout:    kv.OpenAddressing,
		Placement: PlaceHost,
	})
	if err == nil {
		t.Fatal("New without an engine succeeded")
	}
}

func TestServeUpdatesTableAllModes(t *testing.T) {
	type tc struct {
		name      string
		placement Placement
		mode      exitio.Mode
	}
	cases := []tc{
		{"host-native", PlaceHost, exitio.ModeDirect},
		{"epc-ocall", PlaceEnclave, exitio.ModeOCall},
		{"epc-rpc", PlaceEnclave, exitio.ModeRPCSync},
		{"suvm-rpc", PlaceSUVM, exitio.ModeRPCSync},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			plat := newPlat(t)
			var th *sgx.Thread
			var heap *suvm.Heap
			if c.placement == PlaceHost {
				th = plat.NewHostThread(cache.CoSDefault)
			} else {
				encl, err := plat.NewEnclave()
				if err != nil {
					t.Fatal(err)
				}
				th = encl.NewThread()
				th.Enter()
				if c.placement == PlaceSUVM {
					heap, err = suvm.New(encl, th, suvm.Config{PageCacheBytes: 2 << 20, BackingBytes: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			var pool *rpc.Pool
			if c.mode.NeedsPool() {
				pool = rpc.NewPool(plat, 1, 64)
				pool.Start()
				defer pool.Stop()
			}
			srv, err := New(plat, th, Config{
				DataBytes: 1 << 20,
				Layout:    kv.OpenAddressing,
				Placement: c.placement,
				Heap:      heap,
				Engine:    newEngine(t, c.mode, pool),
				Encrypted: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// Each loaded key starts at value=key; updates add 1.
			keys := []uint64{5, 9, 5}
			if err := srv.ServeRequest(th, keys); err != nil {
				t.Fatal(err)
			}
			if v, err := srv.Table().Get(th, 5); err != nil || v != 5+2 {
				t.Fatalf("key 5 = %d err %v, want 7", v, err)
			}
			if v, err := srv.Table().Get(th, 9); err != nil || v != 9+1 {
				t.Fatalf("key 9 = %d err %v, want 10", v, err)
			}
		})
	}
}

func TestOCallVsRPCExitCounts(t *testing.T) {
	// The point of Eleos RPC: OCALL mode exits twice per request
	// (recv + send); RPC mode never exits.
	plat := newPlat(t)
	encl, _ := plat.NewEnclave()
	th := encl.NewThread()
	th.Enter()
	pool := rpc.NewPool(plat, 1, 64)
	pool.Start()
	defer pool.Stop()

	for _, mode := range []exitio.Mode{exitio.ModeOCall, exitio.ModeRPCSync} {
		srv, err := New(plat, th, Config{
			DataBytes: 64 << 10,
			Layout:    kv.OpenAddressing,
			Placement: PlaceEnclave,
			Engine:    newEngine(t, mode, pool),
			Encrypted: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := loadgen.NewKeyGen(1, srv.Entries())
		keys := make([]uint64, 4)
		exits0, ocalls0, _, _, _ := encl.Stats().Snapshot()
		const reqs = 50
		for i := 0; i < reqs; i++ {
			if err := srv.ServeRequest(th, gen.Batch(keys)); err != nil {
				t.Fatal(err)
			}
		}
		exits1, ocalls1, _, _, _ := encl.Stats().Snapshot()
		switch mode {
		case exitio.ModeOCall:
			if got := ocalls1 - ocalls0; got != 2*reqs {
				t.Fatalf("OCALL mode: %d ocalls for %d requests, want %d", got, reqs, 2*reqs)
			}
		case exitio.ModeRPCSync:
			if got := exits1 - exits0; got != 0 {
				t.Fatalf("RPC mode caused %d exits", got)
			}
		}
		srv.Close()
	}
}

func TestUntrustedFasterThanEnclave(t *testing.T) {
	// Fig 1's qualitative core at small scale: the same workload is
	// substantially slower inside the enclave with OCALLs than outside.
	plat := newPlat(t)

	run := func(placement Placement, mode exitio.Mode) float64 {
		var th *sgx.Thread
		if placement == PlaceHost {
			th = plat.NewHostThread(cache.CoSDefault)
		} else {
			encl, _ := plat.NewEnclave()
			th = encl.NewThread()
			th.Enter()
		}
		srv, err := New(plat, th, Config{
			DataBytes: 2 << 20,
			Layout:    kv.OpenAddressing,
			Placement: placement,
			Engine:    newEngine(t, mode, nil),
			Encrypted: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		gen := loadgen.NewKeyGen(2, srv.Entries())
		keys := make([]uint64, 1)
		th.T.Reset()
		const reqs = 400
		for i := 0; i < reqs; i++ {
			if err := srv.ServeRequest(th, gen.Batch(keys)); err != nil {
				t.Fatal(err)
			}
		}
		return float64(th.T.Cycles()) / reqs
	}

	host := run(PlaceHost, exitio.ModeDirect)
	encl := run(PlaceEnclave, exitio.ModeOCall)
	slow := encl / host
	if slow < 3 {
		t.Fatalf("enclave/untrusted slowdown %.1fx, expected substantial (paper: ~9x)", slow)
	}
}
