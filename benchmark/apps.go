package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"eleos"
	"eleos/internal/exitio"
	"eleos/internal/faceverify"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/mckv"
	"eleos/internal/pserver"
	"eleos/internal/traffic"
)

// errWrongOutput marks a response or final state that differs from what
// the benchmark's shadow copy of the application predicts.
var errWrongOutput = errors.New("wrong output")

// app is one served application on its lane's context. serve handles
// one request of the open-loop schedule and checks its response; check
// verifies the application's state at the end of a run.
type app interface {
	serve(req traffic.Request) error
	check() error
	close()
	keySpace() uint64     // requests draw keys from 1..keySpace()
	queue() *exitio.Queue // the server's I/O queue
}

// buildApp builds and loads the lane's application. Loading is set-up
// work: it runs on ctx's thread before the clocks are reset.
func buildApp(rt *eleos.Runtime, ctx *eleos.Ctx, l LaneSpec, seed int64) (app, error) {
	switch l.App {
	case "mckv":
		return asApp(newKVApp(rt, ctx, l, seed))
	case "pserver":
		return asApp(newPSApp(rt, ctx, l, seed))
	case "faceverify":
		return asApp(newFaceApp(rt, ctx, l))
	}
	return nil, fmt.Errorf("unknown app %q", l.App)
}

// asApp returns a nil app on error, not an app holding a nil pointer.
func asApp[A app](a A, err error) (app, error) {
	if err != nil {
		return nil, err
	}
	return a, nil
}

// --- mckv: 80/20 GET/SET with versioned values ---

// kvApp serves GET and SET requests and checks every GET against a
// shadow of the last version SET for the key. A value carries its key
// and version in its first 16 bytes, and the rest is derived from both,
// so a stale, misplaced or torn value is caught byte for byte.
type kvApp struct {
	ctx      *eleos.Ctx
	srv      *mckv.Server
	rt       *eleos.Runtime
	versions []uint64
	mix      *rand.Rand
	key      []byte
	val      []byte
	got      []byte
	respAddr uint64 // untrusted buffer a GET response is sent from
}

func newKVApp(rt *eleos.Runtime, ctx *eleos.Ctx, l LaneSpec, seed int64) (*kvApp, error) {
	store, err := mckv.NewStore(rt.Platform(), ctx.Thread(), mckv.Config{
		// Twice the raw item bytes: room for slab rounding, so the
		// store never evicts and every GET must hit.
		MemLimitBytes: 2 * l.Keys * uint64(l.ValueBytes+mckvItemOverhead),
		Placement:     mckv.PlaceSUVM,
		Heap:          ctx.Enclave().Heap(),
	})
	if err != nil {
		return nil, err
	}
	a := &kvApp{
		ctx:      ctx,
		rt:       rt,
		srv:      mckv.NewServerIO(store, rt.IOEngine()),
		versions: make([]uint64, l.Keys),
		mix:      rand.New(rand.NewSource(seed ^ 0x6d636b76)),
		key:      make([]byte, len("key-")+16),
		val:      make([]byte, l.ValueBytes),
		got:      make([]byte, l.ValueBytes),
	}
	for k := uint64(0); k < l.Keys; k++ {
		if err := store.Set(ctx.Thread(), a.keyOf(k), a.valueOf(k, 0)); err != nil {
			a.srv.Close()
			return nil, fmt.Errorf("mckv: loading key %d: %w", k, err)
		}
	}
	if err := a.findResponseBuffer(); err != nil {
		a.srv.Close()
		return nil, err
	}
	return a, nil
}

func (a *kvApp) keySpace() uint64     { return uint64(len(a.versions)) }
func (a *kvApp) queue() *exitio.Queue { return a.srv.IO() }
func (a *kvApp) close()               { a.srv.Close() }

// mckvItemOverhead is the per-item bytes beyond the value the memory
// limit allows for (record, key and slab header).
const mckvItemOverhead = 128

// findResponseBuffer serves one GET while watching host memory, and
// remembers where the response value was written: the socket's
// untrusted send buffer, which is what the client receives.
func (a *kvApp) findResponseBuffer() error {
	host := a.rt.Platform().Host
	var last atomic.Uint64 // address + 1; RPC workers may touch host memory too
	host.SetTrace(func(addr uint64, n int, write bool) {
		if write && n == len(a.val) {
			last.Store(addr + 1)
		}
	})
	_, err := a.srv.ServeGet(a.ctx.Thread(), a.keyOf(0))
	host.SetTrace(nil)
	if err != nil {
		return fmt.Errorf("mckv: probe GET: %w", err)
	}
	if last.Load() == 0 {
		return errors.New("mckv: probe GET wrote no response")
	}
	a.respAddr = last.Load() - 1
	return a.verifyResponse(0, len(a.val))
}

func (a *kvApp) keyOf(k uint64) []byte {
	copy(a.key, "key-")
	for i := len(a.key) - 1; i >= len("key-"); i-- {
		a.key[i] = byte('0' + k%10)
		k /= 10
	}
	return a.key
}

// valueOf fills and returns the value of key k at version v.
func (a *kvApp) valueOf(k, v uint64) []byte {
	fillValue(a.val, k, v)
	return a.val
}

func fillValue(b []byte, k, v uint64) {
	binary.LittleEndian.PutUint64(b, k)
	binary.LittleEndian.PutUint64(b[8:], v)
	x := k<<32 ^ v
	for i := 16; i < len(b); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
}

func (a *kvApp) serve(req traffic.Request) error {
	k := req.Key - 1
	th := a.ctx.Thread()
	if a.mix.Intn(5) == 0 {
		a.versions[k]++
		return a.srv.ServeSet(th, a.keyOf(k), a.valueOf(k, a.versions[k]))
	}
	n, err := a.srv.ServeGet(th, a.keyOf(k))
	if err != nil {
		return err
	}
	return a.verifyResponse(k, n)
}

// verifyResponse checks the n response bytes of a GET of key k.
func (a *kvApp) verifyResponse(k uint64, n int) error {
	if n != len(a.val) {
		return fmt.Errorf("%w: GET key %d returned %d bytes, want %d", errWrongOutput, k, n, len(a.val))
	}
	a.rt.Platform().Host.ReadAt(a.respAddr, a.got)
	if !bytes.Equal(a.got, a.valueOf(k, a.versions[k])) {
		return fmt.Errorf("%w: GET key %d: value is not version %d (got key %d version %d)", errWrongOutput,
			k, a.versions[k], binary.LittleEndian.Uint64(a.got), binary.LittleEndian.Uint64(a.got[8:]))
	}
	return nil
}

func (a *kvApp) check() error {
	if ev := a.srv.Store().Evictions(); ev != 0 {
		return fmt.Errorf("%w: mckv evicted %d items", errWrongOutput, ev)
	}
	return nil
}

// --- pserver: 4-key update batches against a shadow count ---

// psApp applies 4-key increment batches and keeps a shadow count of the
// updates each key received; the table loads every key with value=key.
type psApp struct {
	ctx     *eleos.Ctx
	srv     *pserver.Server
	rest    *loadgen.KeyGen
	keys    []uint64
	updates map[uint64]uint64
}

func newPSApp(rt *eleos.Runtime, ctx *eleos.Ctx, l LaneSpec, seed int64) (*psApp, error) {
	srv, err := pserver.New(rt.Platform(), ctx.Thread(), pserver.Config{
		DataBytes: l.DataMiB << 20,
		Layout:    kv.OpenAddressing,
		Placement: pserver.PlaceSUVM,
		Heap:      ctx.Enclave().Heap(),
		Engine:    rt.IOEngine(),
		Encrypted: true,
	})
	if err != nil {
		return nil, err
	}
	a := &psApp{
		ctx:     ctx,
		srv:     srv,
		rest:    loadgen.NewKeyGen(seed^0x7073, srv.Entries()),
		keys:    make([]uint64, 4),
		updates: make(map[uint64]uint64),
	}
	return a, nil
}

func (a *psApp) keySpace() uint64     { return a.srv.Entries() }
func (a *psApp) queue() *exitio.Queue { return a.srv.IO() }
func (a *psApp) close()               { a.srv.Close() }

// serve updates the request's key plus three more drawn uniformly.
func (a *psApp) serve(req traffic.Request) error {
	a.keys[0] = req.Key
	for i := 1; i < len(a.keys); i++ {
		a.keys[i] = a.rest.Next()
	}
	if err := a.srv.ServeRequest(a.ctx.Thread(), a.keys); err != nil {
		return err
	}
	for _, k := range a.keys {
		a.updates[k]++
	}
	return nil
}

// psCheckKeys bounds how many keys the final check reads back.
const psCheckKeys = 512

// check reads a deterministic sample of updated keys, plus keys spread
// over the whole table, back through the table and compares each with
// key + updates.
func (a *psApp) check() error {
	touched := make([]uint64, 0, len(a.updates))
	for k := range a.updates {
		touched = append(touched, k)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	sample := make([]uint64, 0, psCheckKeys+64)
	step := len(touched)/psCheckKeys + 1
	for i := 0; i < len(touched); i += step {
		sample = append(sample, touched[i])
	}
	entries := a.srv.Entries()
	for i := uint64(0); i < 64; i++ {
		sample = append(sample, 1+i*(entries/64))
	}
	th := a.ctx.Thread()
	for _, k := range sample {
		got, err := a.srv.Table().Get(th, k)
		if err != nil {
			return fmt.Errorf("pserver: reading key %d back: %w", k, err)
		}
		if want := k + a.updates[k]; got != want {
			return fmt.Errorf("%w: pserver key %d = %d, want %d (%d updates)", errWrongOutput, k, got, want, a.updates[k])
		}
	}
	return nil
}

// --- faceverify: genuine claims must be accepted ---

type faceApp struct {
	ctx        *eleos.Ctx
	srv        *faceverify.Server
	identities uint64
}

func newFaceApp(rt *eleos.Runtime, ctx *eleos.Ctx, l LaneSpec) (*faceApp, error) {
	store, err := faceverify.NewStore(rt.Platform(), ctx.Thread(), faceverify.Config{
		Identities: l.Identities,
		Placement:  faceverify.PlaceSUVM,
		Heap:       ctx.Enclave().Heap(),
		Synthetic:  true,
	})
	if err != nil {
		return nil, err
	}
	return &faceApp{ctx: ctx, srv: faceverify.NewServerIO(store, rt.IOEngine()), identities: l.Identities}, nil
}

func (a *faceApp) keySpace() uint64     { return a.identities }
func (a *faceApp) queue() *exitio.Queue { return a.srv.IO() }
func (a *faceApp) close()               { a.srv.Close() }

// check has nothing left to verify: every claim was checked as served.
func (a *faceApp) check() error { return nil }

// serve verifies a genuine capture of the requested identity; the
// enrolled descriptor comes back through SUVM paging, so a rejection
// means the database returned wrong bytes.
func (a *faceApp) serve(req traffic.Request) error {
	id := req.Key - 1
	ok, err := a.srv.Verify(a.ctx.Thread(), id, req.Conn%4)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: genuine claim for identity %d rejected", errWrongOutput, id)
	}
	return nil
}
