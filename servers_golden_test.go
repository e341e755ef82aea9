package eleos

import (
	"fmt"
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/faceverify"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/mckv"
	"eleos/internal/pserver"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

// Golden server fingerprints: each evaluation server runs a fixed
// seeded request workload under every exitio dispatch mode, and the
// resulting virtual-cycle fingerprint is pinned. The exit-less I/O
// engine (internal/exitio) must leave the single-op dispatch paths
// bit-identical to the hand-rolled per-server switches it replaced:
// same charge sequence per request, same LLC evolution, same
// in-enclave time split. RPC-mode workloads use a single-worker pool,
// the configuration the fingerprints were captured with.
//
// The native, ocall and rpc rows were captured at commit f19d53e
// (pre-exitio), where each server issued one synchronous pool.Call per
// Recv and per Send through its own switch. The rpc-async rows were
// captured from the per-server recv/send sequences just before they
// were folded into exitio.Endpoint.

type serverFingerprint [3]uint64 // thread cycles, in-enclave cycles, LLC misses

// goldenServerEnv is the shared fixture: a small machine, an enclave +
// entered thread (a host thread for native dispatch), a 1-worker RPC
// pool for the RPC modes, and an engine in the requested mode.
type goldenServerEnv struct {
	plat *sgx.Platform
	encl *sgx.Enclave
	th   *sgx.Thread
	pool *rpc.Pool
	eng  *exitio.Engine
}

func newGoldenServerEnv(t *testing.T, mode exitio.Mode) *goldenServerEnv {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	v := &goldenServerEnv{plat: plat}
	if mode == exitio.ModeDirect {
		v.th = plat.NewHostThread(0)
	} else {
		encl, err := plat.NewEnclave()
		if err != nil {
			t.Fatal(err)
		}
		v.encl = encl
		v.th = encl.NewThread()
		v.th.Enter()
	}
	if mode.NeedsPool() {
		v.pool = rpc.NewPool(plat, 1, 64)
		v.pool.Start()
	}
	if v.eng, err = exitio.NewEngine(mode, v.pool); err != nil {
		t.Fatal(err)
	}
	return v
}

func (v *goldenServerEnv) fingerprint() serverFingerprint {
	return serverFingerprint{
		v.th.T.Cycles(),
		v.th.SyncEnclaveCycles(),
		v.plat.LLC.Stats().Misses,
	}
}

func (v *goldenServerEnv) close() {
	if v.pool != nil {
		v.pool.Stop()
	}
}

func mckvGoldenWorkload(t *testing.T, mode exitio.Mode) serverFingerprint {
	t.Helper()
	v := newGoldenServerEnv(t, mode)
	defer v.close()
	pl := mckv.PlaceEnclave
	if mode == exitio.ModeDirect {
		pl = mckv.PlaceHost
	}
	store, err := mckv.NewStore(v.plat, v.th, mckv.Config{
		MemLimitBytes: 8 << 20,
		Placement:     pl,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := mckv.NewServerIO(store, v.eng)
	defer srv.Close()

	key := make([]byte, 20)
	val := make([]byte, 256)
	const items = 2000
	for i := 0; i < items; i++ {
		copy(key, fmt.Sprintf("key-%016d", i))
		if err := store.Set(v.th, key, val); err != nil {
			t.Fatal(err)
		}
	}
	v.th.T.Reset()
	v.th.ResetEnclaveCycles()
	v.plat.LLC.ResetStats()

	gen := loadgen.NewKeyGen(4242, items)
	for n := 0; n < 1500; n++ {
		copy(key, fmt.Sprintf("key-%016d", gen.Next()-1))
		if n%5 == 4 {
			if err := srv.ServeSet(v.th, key, val); err != nil {
				t.Fatal(err)
			}
		} else if _, err := srv.ServeGet(v.th, key); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(v.th); err != nil {
		t.Fatal(err)
	}
	return v.fingerprint()
}

func pserverGoldenWorkload(t *testing.T, mode exitio.Mode) serverFingerprint {
	t.Helper()
	v := newGoldenServerEnv(t, mode)
	defer v.close()
	pl := pserver.PlaceEnclave
	if mode == exitio.ModeDirect {
		pl = pserver.PlaceHost
	}
	srv, err := pserver.New(v.plat, v.th, pserver.Config{
		DataBytes: 4 << 20,
		Layout:    kv.OpenAddressing,
		Placement: pl,
		Engine:    v.eng,
		Encrypted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	v.th.T.Reset()
	v.th.ResetEnclaveCycles()
	v.plat.LLC.ResetStats()

	gen := loadgen.NewKeyGen(31337, srv.Entries())
	keys := make([]uint64, 4)
	for n := 0; n < 1500; n++ {
		if err := srv.ServeRequest(v.th, gen.Batch(keys)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(v.th); err != nil {
		t.Fatal(err)
	}
	return v.fingerprint()
}

func faceverifyGoldenWorkload(t *testing.T, mode exitio.Mode) serverFingerprint {
	t.Helper()
	v := newGoldenServerEnv(t, mode)
	defer v.close()
	pl := faceverify.PlaceEnclave
	if mode == exitio.ModeDirect {
		pl = faceverify.PlaceHost
	}
	store, err := faceverify.NewStore(v.plat, v.th, faceverify.Config{
		Identities: 64,
		Placement:  pl,
		Synthetic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := faceverify.NewServerIO(store, v.eng)
	defer srv.Close()
	v.th.T.Reset()
	v.th.ResetEnclaveCycles()
	v.plat.LLC.ResetStats()

	gen := loadgen.NewKeyGen(2718, 64)
	for n := 0; n < 300; n++ {
		if _, err := srv.Verify(v.th, gen.Next()-1, uint64(n%4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(v.th); err != nil {
		t.Fatal(err)
	}
	return v.fingerprint()
}

// Pinned fingerprints, keyed "<server>/<mode>" with the mode's String;
// TestServerCyclesMatchSeed prints the entry to pin on a mismatch.
// Any divergence means the exitio dispatch path no longer charges the
// same cycle sequence as the code it replaced, and every server
// benchmark number stops being comparable to earlier runs. Each
// workload ends with a Flush, which charges nothing in the synchronous
// modes and completes the last deferred send in rpc-async.
var goldenServerFingerprints = map[string]serverFingerprint{
	"mckv/native":          {5685446, 0, 58805},
	"mckv/ocall":           {33391996, 3626036, 58805},
	"mckv/rpc":             {6770946, 3705386, 58805},
	"mckv/rpc-async":       {6246296, 3480536, 58805},
	"pserver/native":       {4646352, 0, 58431},
	"pserver/ocall":        {34522432, 5201412, 58431},
	"pserver/rpc":          {7351132, 4731112, 58431},
	"pserver/rpc-async":    {6826482, 4506262, 58431},
	"faceverify/native":    {521237324, 0, 4915434},
	"faceverify/ocall":     {589045741, 413586017, 4915434},
	"faceverify/rpc":       {582040591, 411980767, 4915434},
	"faceverify/rpc-async": {581935941, 411935917, 4915434},
}

// goldenServers maps each server to its fingerprint workload;
// goldenModes lists the dispatch modes every server runs under.
var (
	goldenServers = []struct {
		name string
		run  func(*testing.T, exitio.Mode) serverFingerprint
	}{
		{"mckv", mckvGoldenWorkload},
		{"pserver", pserverGoldenWorkload},
		{"faceverify", faceverifyGoldenWorkload},
	}
	goldenModes = []exitio.Mode{exitio.ModeDirect, exitio.ModeOCall, exitio.ModeRPCSync, exitio.ModeRPCAsync}
)

func TestServerCyclesMatchSeed(t *testing.T) {
	for _, srv := range goldenServers {
		for _, mode := range goldenModes {
			srv, mode := srv, mode
			name := srv.name + "/" + mode.String()
			t.Run(name, func(t *testing.T) {
				want, ok := goldenServerFingerprints[name]
				if got := srv.run(t, mode); !ok || got != want {
					t.Fatalf("server fingerprint %v, pinned %v (fields: cycles, in-enclave cycles, LLC misses); "+
						"if the change is intended, pin:\n\t%q: {%d, %d, %d},", got, want, name, got[0], got[1], got[2])
				}
			})
		}
	}
}

// Every server submits through exitio.Endpoint, so each follows its
// queue's live mode the way the tuner flips it: after SetMode to
// rpc-sync a served request leaves nothing staged, and after SetMode
// back to rpc-async exactly one response send stays staged (linked
// into the next receive) until Flush.
func TestServersFollowLiveMode(t *testing.T) {
	type liveServer struct {
		io    *exitio.Queue
		serve func() error
		flush func() error
	}
	builds := []struct {
		name  string
		build func(t *testing.T, v *goldenServerEnv) liveServer
	}{
		{"mckv", func(t *testing.T, v *goldenServerEnv) liveServer {
			store, err := mckv.NewStore(v.plat, v.th, mckv.Config{MemLimitBytes: 1 << 20, Placement: mckv.PlaceEnclave})
			if err != nil {
				t.Fatal(err)
			}
			key := []byte("live-mode-key")
			if err := store.Set(v.th, key, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			srv := mckv.NewServerIO(store, v.eng)
			t.Cleanup(srv.Close)
			return liveServer{
				io:    srv.IO(),
				serve: func() error { _, err := srv.ServeGet(v.th, key); return err },
				flush: func() error { return srv.Flush(v.th) },
			}
		}},
		{"pserver", func(t *testing.T, v *goldenServerEnv) liveServer {
			srv, err := pserver.New(v.plat, v.th, pserver.Config{
				DataBytes: 64 << 10,
				Layout:    kv.OpenAddressing,
				Placement: pserver.PlaceEnclave,
				Engine:    v.eng,
				Encrypted: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			keys := []uint64{1, 2}
			return liveServer{
				io:    srv.IO(),
				serve: func() error { return srv.ServeRequest(v.th, keys) },
				flush: func() error { return srv.Flush(v.th) },
			}
		}},
		{"faceverify", func(t *testing.T, v *goldenServerEnv) liveServer {
			store, err := faceverify.NewStore(v.plat, v.th, faceverify.Config{
				Identities: 4,
				Placement:  faceverify.PlaceEnclave,
				Synthetic:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := faceverify.NewServerIO(store, v.eng)
			t.Cleanup(srv.Close)
			return liveServer{
				io:    srv.IO(),
				serve: func() error { _, err := srv.Verify(v.th, 1, 0); return err },
				flush: func() error { return srv.Flush(v.th) },
			}
		}},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			v := newGoldenServerEnv(t, exitio.ModeRPCAsync)
			defer v.close()
			srv := b.build(t, v)
			serve := func(mode exitio.Mode, wantStaged int) {
				t.Helper()
				for i := 0; i < 2; i++ {
					if err := srv.serve(); err != nil {
						t.Fatal(err)
					}
					if got := srv.io.Staged(); got != wantStaged {
						t.Fatalf("%s: %d ops staged after a served request, want %d", mode, got, wantStaged)
					}
				}
			}
			if err := srv.io.SetMode(v.th, exitio.ModeRPCSync); err != nil {
				t.Fatal(err)
			}
			serve(exitio.ModeRPCSync, 0)
			if err := srv.io.SetMode(v.th, exitio.ModeRPCAsync); err != nil {
				t.Fatal(err)
			}
			serve(exitio.ModeRPCAsync, 1)
			if err := srv.flush(); err != nil {
				t.Fatal(err)
			}
			if got := srv.io.Staged(); got != 0 {
				t.Fatalf("%d ops staged after Flush, want 0", got)
			}
		})
	}
}
