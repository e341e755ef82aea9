package bench

import (
	"fmt"

	"eleos"
	"eleos/internal/faceverify"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/mckv"
	"eleos/internal/pserver"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// The tenant layer builds, loads and serves the paper's three
// evaluation servers (memcached, the parameter server and face
// verification, §2 and §6) for every experiment that runs them on an
// eleos runtime: traffic, fleet and consolidation. An experiment keeps
// only its sizes, its key draws and its measurement loop, so every
// request body below is the same in all three.

// tenantKind selects one of the three servers.
type tenantKind int

const (
	tenantMckv tenantKind = iota
	tenantPserver
	tenantFace
)

var tenantNames = [...]string{tenantMckv: "mckv", tenantPserver: "pserver", tenantFace: "faceverify"}

// tenantSeeds seed each server's own key stream (see stream).
var tenantSeeds = [...]int64{tenantMckv: 4242, tenantPserver: 31337, tenantFace: 2718}

// tenantSpec sizes one tenant's store.
type tenantSpec struct {
	kind  tenantKind
	bytes uint64 // mckv: memory limit; pserver: key+value payload
	items uint64 // mckv: items loaded; faceverify: identities enrolled
	value int    // mckv: value bytes
}

func (s tenantSpec) name() string { return tenantNames[s.kind] }

// keys is the key space serve draws from: [1, keys].
func (s tenantSpec) keys() uint64 {
	if s.kind == tenantPserver {
		return s.bytes / 16 // pserver.Config.DataBytes: 16 bytes per entry
	}
	return s.items
}

// stream returns the server's own seeded key stream over its key space.
// Fleet and consolidation draw every request's key from it and pass it
// to newTenant as the parameter server's batch generator.
func (s tenantSpec) stream() *loadgen.KeyGen {
	return loadgen.NewKeyGen(tenantSeeds[s.kind], s.keys())
}

// tenant is one loaded server behind its exit-less socket. serve
// handles one request for key in [1, spec.keys()] on th.
type tenant struct {
	th    *sgx.Thread
	serve func(key uint64) error
	// srv is the *mckv.Server, *pserver.Server or *faceverify.Server.
	srv interface {
		Flush(*sgx.Thread) error
		Close()
	}
}

// flush completes a response an async engine still defers.
func (t *tenant) flush() error { return t.srv.Flush(t.th) }

// close releases the server's socket.
func (t *tenant) close() { t.srv.Close() }

// newTenant builds spec's server on ctx's thread, allocates its store
// from heap (an Enclave.Heap or a Service.Domain) and attributes its
// queue to grp (nil outside a service), then loads it. The load is
// charged to ctx and is not part of any request. A parameter-server
// request updates a 4-key batch: serve's key leads it and rest draws
// the other three.
func newTenant(rt *eleos.Runtime, ctx *eleos.Ctx, spec tenantSpec, heap suvm.Allocator, grp *eleos.IOGroup, rest *loadgen.KeyGen) (*tenant, error) {
	th := ctx.Thread()
	t := &tenant{th: th}
	switch spec.kind {
	case tenantMckv:
		store, err := mckv.NewStore(rt.Platform(), th, mckv.Config{
			MemLimitBytes: spec.bytes,
			Placement:     mckv.PlaceSUVM,
			Heap:          heap,
		})
		if err != nil {
			return nil, err
		}
		mc := mckv.NewServerIOGroup(store, rt.IOEngine(), grp)
		key := make([]byte, 20)
		val := make([]byte, spec.value)
		for i := uint64(0); i < spec.items; i++ {
			copy(key, fmt.Sprintf("key-%016d", i))
			if err := store.Set(th, key, val); err != nil {
				mc.Close()
				return nil, err
			}
		}
		n := 0
		t.serve = func(k uint64) error {
			copy(key, fmt.Sprintf("key-%016d", k-1))
			n++
			if n%5 == 0 {
				return mc.ServeSet(th, key, val)
			}
			_, err := mc.ServeGet(th, key)
			return err
		}
		t.srv = mc
	case tenantPserver:
		ps, err := pserver.New(rt.Platform(), th, pserver.Config{
			DataBytes: spec.bytes,
			Layout:    kv.OpenAddressing,
			Placement: pserver.PlaceSUVM,
			Heap:      heap,
			Engine:    rt.IOEngine(),
			Group:     grp,
			Encrypted: true,
		})
		if err != nil {
			return nil, err
		}
		keys := make([]uint64, 4)
		entries := ps.Entries()
		t.serve = func(k uint64) error {
			keys[0] = (k-1)%entries + 1
			for i := 1; i < len(keys); i++ {
				keys[i] = rest.Next()
			}
			return ps.ServeRequest(th, keys)
		}
		t.srv = ps
	case tenantFace:
		store, err := faceverify.NewStore(rt.Platform(), th, faceverify.Config{
			Identities: spec.items,
			Placement:  faceverify.PlaceSUVM,
			Heap:       heap,
			Synthetic:  true,
		})
		if err != nil {
			return nil, err
		}
		fv := faceverify.NewServerIOGroup(store, rt.IOEngine(), grp)
		// Every claim is genuine, so a rejection is a wrong answer. A
		// synthetic capture does not depend on its variant: every claim
		// is variant 0.
		t.serve = func(k uint64) error {
			ok, err := fv.Verify(th, k-1, 0)
			if err == nil && !ok {
				err = fmt.Errorf("faceverify: genuine claim of identity %d rejected", k-1)
			}
			return err
		}
		t.srv = fv
	}
	return t, nil
}
