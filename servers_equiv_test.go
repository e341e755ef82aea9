package eleos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/faceverify"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/mckv"
	"eleos/internal/pserver"
)

// One seeded request stream per evaluation server, served under every
// exitio dispatch mode: what the clients observe — each mckv GET's
// value length or miss and every key's final value, each faceverify
// verdict, pserver's final parameter table — must not depend on how the
// I/O crosses the trust boundary. Only cycles may differ, and the
// golden fingerprints pin those. Every served request must also leave
// nothing in flight: Endpoint.Recv waits for its chain in every mode.
func TestServersSameDataEveryMode(t *testing.T) {
	for _, srv := range []struct {
		name string
		run  func(*testing.T, exitio.Mode) []string
	}{
		{"mckv", mckvTranscript},
		{"pserver", pserverTranscript},
		{"faceverify", faceverifyTranscript},
	} {
		t.Run(srv.name, func(t *testing.T) {
			want := srv.run(t, goldenModes[0])
			for _, mode := range goldenModes[1:] {
				got := srv.run(t, mode)
				if len(got) != len(want) {
					t.Fatalf("%s: %d observations, %s saw %d", mode, len(got), goldenModes[0], len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: observation %d = %q, %s saw %q", mode, i, got[i], goldenModes[0], want[i])
					}
				}
			}
		})
	}
}

// requireDrained fails the test if a served request left ops in flight.
func requireDrained(t *testing.T, q *exitio.Queue, mode exitio.Mode, n int) {
	t.Helper()
	if got := q.InFlight(); got != 0 {
		t.Fatalf("%s: request %d left %d ops in flight", mode, n, got)
	}
}

// mckvTranscript serves GETs and SETs over a key space a third larger
// than the loaded items, so the stream mixes hits, misses, overwrites
// and inserts of values whose length and bytes depend on the request.
func mckvTranscript(t *testing.T, mode exitio.Mode) []string {
	t.Helper()
	v := newGoldenServerEnv(t, mode)
	defer v.close()
	pl := mckv.PlaceEnclave
	if mode == exitio.ModeDirect {
		pl = mckv.PlaceHost
	}
	store, err := mckv.NewStore(v.plat, v.th, mckv.Config{MemLimitBytes: 8 << 20, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	srv := mckv.NewServerIO(store, v.eng)
	defer srv.Close()

	const items, space = 300, 400
	keyOf := func(k uint64) []byte { return []byte(fmt.Sprintf("key-%016d", k)) }
	for k := uint64(0); k < items; k++ {
		if err := store.Set(v.th, keyOf(k), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	gen := loadgen.NewKeyGen(4242, space)
	for n := 0; n < 600; n++ {
		key := keyOf(gen.Next() - 1)
		if n%3 == 2 {
			val := make([]byte, 1+n*53%300)
			for i := range val {
				val[i] = byte(n + i)
			}
			if err := srv.ServeSet(v.th, key, val); err != nil {
				t.Fatalf("%s: set %d: %v", mode, n, err)
			}
		} else {
			vlen, err := srv.ServeGet(v.th, key)
			switch {
			case errors.Is(err, mckv.ErrNotFound):
				out = append(out, fmt.Sprintf("get %s miss", key))
			case err != nil:
				t.Fatalf("%s: get %d: %v", mode, n, err)
			default:
				out = append(out, fmt.Sprintf("get %s %d", key, vlen))
			}
		}
		requireDrained(t, srv.IO(), mode, n)
	}
	if err := srv.Flush(v.th); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for k := uint64(0); k < space; k++ {
		n, err := store.Get(v.th, keyOf(k), buf)
		switch {
		case errors.Is(err, mckv.ErrNotFound):
			out = append(out, fmt.Sprintf("final %d miss", k))
		case err != nil:
			t.Fatal(err)
		default:
			h := fnv.New64a()
			h.Write(buf[:n])
			out = append(out, fmt.Sprintf("final %d %d %x", k, n, h.Sum64()))
		}
	}
	return out
}

// pserverTranscript applies batched updates and returns the final
// parameter table.
func pserverTranscript(t *testing.T, mode exitio.Mode) []string {
	t.Helper()
	v := newGoldenServerEnv(t, mode)
	defer v.close()
	pl := pserver.PlaceEnclave
	if mode == exitio.ModeDirect {
		pl = pserver.PlaceHost
	}
	srv, err := pserver.New(v.plat, v.th, pserver.Config{
		DataBytes: 64 << 10,
		Layout:    kv.OpenAddressing,
		Placement: pl,
		Engine:    v.eng,
		Encrypted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gen := loadgen.NewKeyGen(31337, srv.Entries())
	keys := make([]uint64, 4)
	for n := 0; n < 600; n++ {
		if err := srv.ServeRequest(v.th, gen.Batch(keys)); err != nil {
			t.Fatalf("%s: request %d: %v", mode, n, err)
		}
		requireDrained(t, srv.IO(), mode, n)
	}
	if err := srv.Flush(v.th); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, srv.Entries())
	for k := uint64(1); k <= srv.Entries(); k++ {
		val, err := srv.Table().Get(v.th, k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d=%d", k, val))
	}
	return out
}

// faceverifyTranscript returns the verdict of every claim.
func faceverifyTranscript(t *testing.T, mode exitio.Mode) []string {
	t.Helper()
	v := newGoldenServerEnv(t, mode)
	defer v.close()
	pl := faceverify.PlaceEnclave
	if mode == exitio.ModeDirect {
		pl = faceverify.PlaceHost
	}
	store, err := faceverify.NewStore(v.plat, v.th, faceverify.Config{
		Identities: 16,
		Placement:  pl,
		Synthetic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := faceverify.NewServerIO(store, v.eng)
	defer srv.Close()
	var out []string
	gen := loadgen.NewKeyGen(2718, 16)
	for n := 0; n < 120; n++ {
		id := gen.Next() - 1
		ok, err := srv.Verify(v.th, id, uint64(n%4))
		if err != nil {
			t.Fatalf("%s: claim %d: %v", mode, n, err)
		}
		out = append(out, fmt.Sprintf("claim %d/%d %t", id, n%4, ok))
		requireDrained(t, srv.IO(), mode, n)
	}
	if err := srv.Flush(v.th); err != nil {
		t.Fatal(err)
	}
	return out
}
