package bench

import (
	"bytes"
	"fmt"
	"testing"

	"eleos"
	"eleos/internal/faceverify"
	"eleos/internal/mckv"
	"eleos/internal/pserver"
)

// TestTenantsServeCorrectly builds each tenant small, serves a few
// hundred requests through the tenant layer, and then checks the
// answers the servers hold: mckv returns the loaded value bytes,
// faceverify accepts every genuine claim, and the parameter table holds
// exactly the updates the requests applied.
func TestTenantsServeCorrectly(t *testing.T) {
	const reqs = 300
	for _, spec := range []tenantSpec{
		{kind: tenantMckv, bytes: 1 << 20, items: 256, value: 64},
		{kind: tenantPserver, bytes: 16 << 10},
		{kind: tenantFace, items: 4},
	} {
		t.Run(spec.name(), func(t *testing.T) {
			rt, err := eleos.NewRuntime(eleos.WithRPCWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			encl, err := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer encl.Destroy()
			ctx := encl.NewContext()
			defer ctx.Close()
			gen := spec.stream()
			tn, err := newTenant(rt, ctx, spec, encl.Heap(), nil, gen)
			if err != nil {
				t.Fatal(err)
			}
			defer tn.close()
			for i := 0; i < reqs; i++ {
				if err := tn.serve(gen.Next()); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			if err := tn.flush(); err != nil {
				t.Fatal(err)
			}

			th := ctx.Thread()
			switch srv := tn.srv.(type) {
			case *mckv.Server:
				want := make([]byte, spec.value)
				buf := make([]byte, 2*spec.value)
				for k := uint64(0); k < spec.items; k++ {
					for i := range buf {
						buf[i] = 0xff
					}
					n, err := srv.Store().Get(th, []byte(fmt.Sprintf("key-%016d", k)), buf)
					if err != nil {
						t.Fatalf("get key %d: %v", k, err)
					}
					if !bytes.Equal(buf[:n], want) {
						t.Fatalf("key %d: got %d bytes %x, want the %d loaded bytes", k, n, buf[:n], len(want))
					}
				}
			case *pserver.Server:
				// Each entry loads as value == key and every request adds
				// 1 to four keys.
				var added uint64
				for k := uint64(1); k <= srv.Entries(); k++ {
					v, err := srv.Table().Get(th, k)
					if err != nil {
						t.Fatalf("get key %d: %v", k, err)
					}
					if v < k {
						t.Fatalf("key %d holds %d, below its loaded value", k, v)
					}
					added += v - k
				}
				if added != 4*reqs {
					t.Fatalf("table holds %d updates, want %d", added, 4*reqs)
				}
			case *faceverify.Server:
				for id := uint64(0); id < spec.items; id++ {
					ok, err := srv.Verify(th, id, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("genuine claim of identity %d rejected", id)
					}
				}
			default:
				t.Fatalf("unexpected server %T", srv)
			}
		})
	}
}
