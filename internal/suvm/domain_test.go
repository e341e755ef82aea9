package suvm

import (
	"bytes"
	"errors"
	"testing"

	"eleos/internal/sgx"
)

// Domain carving and isolation invariants: ownership-tagged frees,
// backing quotas, carve validation, proportional ballooning, and frame
// conservation across every domain.

// checkFrames audits frame conservation at a quiescent point, over
// every domain, the root included: each frame of [start, start+active)
// is mapped in the resident table or pooled, exactly once; each frame
// of [start+active, start+count) is disabled, unmapped and unpooled;
// and no pool holds a frame outside its own domain's range.
func checkFrames(t testing.TB, h *Heap) {
	t.Helper()
	seen := make([]int, len(h.frames))
	for i := range h.resident.shards {
		sh := &h.resident.shards[i]
		sh.mu.Lock()
		for page, f := range sh.m {
			if got := h.frames[f].bsPage.Load(); got != page {
				t.Errorf("frame %d is mapped for page %d but records page %d", f, page, got)
			}
			seen[f]++
		}
		sh.mu.Unlock()
	}
	doms := h.domainList()
	for _, d := range doms {
		for i := range d.free.shards {
			s := &d.free.shards[i]
			s.mu.Lock()
			for _, f := range s.frames {
				if int(f) < d.start || int(f) >= d.start+d.count {
					t.Errorf("domain %q pools frame %d outside its range [%d, %d)", d.name, f, d.start, d.start+d.count)
				}
				seen[f]++
			}
			s.mu.Unlock()
		}
	}
	for _, d := range doms {
		for f := d.start; f < d.start+d.count; f++ {
			fm := &h.frames[f]
			switch {
			case fm.dom != d:
				t.Errorf("frame %d of domain %q is tagged for another domain", f, d.name)
			case f < d.start+d.active && (fm.disabled || seen[f] != 1):
				t.Errorf("active frame %d of domain %q: disabled=%v, mapped or pooled %d times, want 1", f, d.name, fm.disabled, seen[f])
			case f >= d.start+d.active && (!fm.disabled || seen[f] != 0):
				t.Errorf("inactive frame %d of domain %q: disabled=%v, mapped or pooled %d times, want 0", f, d.name, fm.disabled, seen[f])
			}
		}
	}
}

func TestDomainCarveAndRoundTrip(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 128 << 10, BackingBytes: 64 << 20}) // 32 frames
	d, err := e.h.NewDomain(e.th, DomainConfig{Name: "svc", EPCBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if d.EPCFrames() != 8 {
		t.Fatalf("carved %d frames, want 8", d.EPCFrames())
	}
	// A working set 4x the carve pages entirely inside the domain.
	p, err := d.Malloc(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 128<<10)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := p.WriteAt(e.th, 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := p.ReadAt(e.th, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("domain readback mismatch across evictions")
	}
	st := d.Stats()
	if st.MajorFaults == 0 || st.Evictions == 0 {
		t.Fatalf("domain paged through the shared pipeline without domain-local accounting: %+v", st)
	}
	// The heap aggregate rolls the domain up (totals stay meaningful),
	// and itemizes it: all paging activity must be attributed to "svc",
	// none left on the root.
	hs := e.h.Stats()
	if hs.MajorFaults != st.MajorFaults {
		t.Fatalf("heap aggregate %d faults, domain %d — root took faults of its own", hs.MajorFaults, st.MajorFaults)
	}
	if len(hs.Domains) != 1 || hs.Domains[0].Name != "svc" || hs.Domains[0].MajorFaults != st.MajorFaults {
		t.Fatalf("domain rollup missing or wrong: %+v", hs.Domains)
	}
	if err := d.Free(e.th, p); err != nil {
		t.Fatal(err)
	}
}

func TestDomainCrossFreeRejected(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 128 << 10, BackingBytes: 64 << 20})
	a, err := e.h.NewDomain(e.th, DomainConfig{Name: "a", EPCBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.h.NewDomain(e.th, DomainConfig{Name: "b", EPCBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := a.Malloc(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(e.th, pa); !errors.Is(err, ErrCrossDomain) {
		t.Fatalf("freeing a's allocation via b: got %v, want ErrCrossDomain", err)
	}
	if err := e.h.Free(e.th, pa); !errors.Is(err, ErrCrossDomain) {
		t.Fatalf("freeing a's allocation via the root: got %v, want ErrCrossDomain", err)
	}
	proot, err := e.h.Malloc(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(e.th, proot); !errors.Is(err, ErrCrossDomain) {
		t.Fatalf("freeing a root allocation via a: got %v, want ErrCrossDomain", err)
	}
	if err := a.Free(e.th, pa); err != nil {
		t.Fatal(err)
	}
	if err := e.h.Free(e.th, proot); err != nil {
		t.Fatal(err)
	}
}

func TestDomainBackingQuota(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 128 << 10, BackingBytes: 64 << 20})
	d, err := e.h.NewDomain(e.th, DomainConfig{
		Name: "quota", EPCBytes: 32 << 10, BackingQuota: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := d.Malloc(48 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(32 << 10); !errors.Is(err, ErrBackingFull) {
		t.Fatalf("over-quota malloc: got %v, want ErrBackingFull", err)
	}
	// Freeing returns quota.
	if err := d.Free(e.th, p1); err != nil {
		t.Fatal(err)
	}
	p2, err := d.Malloc(32 << 10)
	if err != nil {
		t.Fatalf("malloc after free should fit the quota again: %v", err)
	}
	if err := d.Free(e.th, p2); err != nil {
		t.Fatal(err)
	}
}

func TestDomainCarveValidation(t *testing.T) {
	e := newEnv(t, smallCfg()) // 16 frames
	if _, err := e.h.NewDomain(e.th, DomainConfig{EPCBytes: 16 << 10}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nameless carve: got %v, want ErrBadConfig", err)
	}
	if _, err := e.h.NewDomain(e.th, DomainConfig{Name: "x"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero-EPC carve: got %v, want ErrBadConfig", err)
	}
	// 16 frames total: carving 14 would leave the root only 2 (< 4).
	if _, err := e.h.NewDomain(e.th, DomainConfig{Name: "x", EPCBytes: 56 << 10}); !errors.Is(err, sgx.ErrOutOfEPC) {
		t.Fatalf("over-carve: got %v, want ErrOutOfEPC", err)
	}
	if _, err := e.h.NewDomain(e.th, DomainConfig{Name: "x", EPCBytes: 16 << 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.h.NewDomain(e.th, DomainConfig{Name: "x", EPCBytes: 16 << 10}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("duplicate name: got %v, want ErrBadConfig", err)
	}
}

func TestResizeScalesDomainsProportionally(t *testing.T) {
	e := newEnv(t, Config{PageCacheBytes: 128 << 10, BackingBytes: 64 << 20}) // 32 frames
	d, err := e.h.NewDomain(e.th, DomainConfig{Name: "svc", EPCBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	checkFrames(t, e.h)
	// Root 24 frames, domain 8. Halving the TOTAL to 16 frames must
	// scale both carves proportionally: root 12, domain 4.
	if err := e.h.ResizeTo(e.th, 64<<10); err != nil {
		t.Fatal(err)
	}
	if got := e.h.ActiveFrames(); got != 12 {
		t.Fatalf("root active after proportional shrink: got %d, want 12", got)
	}
	if got := d.ActiveFrames(); got != 4 {
		t.Fatalf("domain active after proportional shrink: got %d, want 4", got)
	}
	checkFrames(t, e.h)
	// The shrunk domain keeps paging: a working set twice its reduced
	// carve still round-trips through its own evictor.
	p, err := d.Malloc(32 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 32<<10)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := p.WriteAt(e.th, 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := p.ReadAt(e.th, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("domain readback mismatch after proportional shrink")
	}
	checkFrames(t, e.h)
	// Growing back re-enables both carves to their full capacity.
	if err := e.h.ResizeTo(e.th, 128<<10); err != nil {
		t.Fatal(err)
	}
	if got := e.h.ActiveFrames(); got != 24 {
		t.Fatalf("root active after regrow: got %d, want 24", got)
	}
	if got := d.ActiveFrames(); got != 8 {
		t.Fatalf("domain active after regrow: got %d, want 8", got)
	}
	checkFrames(t, e.h)
	if err := p.ReadAt(e.th, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("domain readback mismatch after regrow")
	}
	// Floors hold: shrinking to nothing leaves root 4 and domain
	// min(4, carve) = 4 frames.
	if err := e.h.ResizeTo(e.th, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.h.ActiveFrames(); got != 4 {
		t.Fatalf("root active at floor: got %d, want 4", got)
	}
	if got := d.ActiveFrames(); got != 4 {
		t.Fatalf("domain active at floor: got %d, want 4", got)
	}
	checkFrames(t, e.h)
	if err := d.Free(e.th, p); err != nil {
		t.Fatal(err)
	}
}

// A carve refused by a pinned frame must hand the frames it already
// emptied back to the root: every active root frame stays mapped or
// pooled, and once the pin is gone the retried carve succeeds with the
// data intact.
func TestRefusedCarveKeepsRootFrames(t *testing.T) {
	e := newEnv(t, smallCfg()) // 16 frames, drained in order 0, 1, 2, ...
	p, err := e.h.Malloc(16 << 12)
	if err != nil {
		t.Fatal(err)
	}
	page := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 4096) }
	for i := 0; i < 16; i++ {
		if err := p.WriteAt(e.th, uint64(i)<<12, page(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A linked spointer pins page 12 in frame 12; the 8-frame carve
	// empties frames 8..11 before it reaches the pin.
	pin := p.Clone()
	if err := pin.Seek(e.th, 12<<12); err != nil {
		t.Fatal(err)
	}
	if err := pin.Read(e.th, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := DomainConfig{Name: "svc", EPCBytes: 8 << 12}
	if _, err := e.h.NewDomain(e.th, cfg); err == nil {
		t.Fatal("carve past a pinned frame succeeded")
	}
	if got := e.h.ActiveFrames(); got != 16 {
		t.Fatalf("refused carve left the root %d active frames, want 16", got)
	}
	if got := e.h.root.free.size(); got != 4 {
		t.Fatalf("refused carve left %d frames pooled, want the 4 it emptied", got)
	}
	checkFrames(t, e.h)
	pin.Unlink(e.th)
	d, err := e.h.NewDomain(e.th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.h.ActiveFrames() != 8 || d.ActiveFrames() != 8 {
		t.Fatalf("carve split root %d / domain %d, want 8 / 8", e.h.ActiveFrames(), d.ActiveFrames())
	}
	checkFrames(t, e.h)
	got := make([]byte, 4096)
	for i := 0; i < 16; i++ {
		if err := p.ReadAt(e.th, uint64(i)<<12, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page(i)) {
			t.Fatalf("page %d lost its data across a refused carve", i)
		}
	}
	checkFrames(t, e.h)
}
