package sgx

import (
	"slices"
	"testing"

	"eleos/internal/phys"
)

// The driver clears a frame on a demand-zero fault only if the frame
// was written since its last clear. These tests write every frame of a
// small PRM, release the frames through each path the driver has, and
// require a demand-zero fault that reuses one to read all zeros — in
// the same enclave and in another enclave on the same platform.

const reuseFrames = 16

// fillPages writes a non-zero pattern to n pages starting at addr.
func fillPages(th *Thread, addr uint64, n int) {
	buf := make([]byte, phys.PageSize)
	for i := range buf {
		buf[i] = 0xA5
	}
	for pg := 0; pg < n; pg++ {
		th.Write(addr+uint64(pg*phys.PageSize), buf)
	}
}

// requireZeroPages reads n pages starting at addr and fails on any
// non-zero byte.
func requireZeroPages(t *testing.T, th *Thread, addr uint64, n int) {
	t.Helper()
	buf := make([]byte, phys.PageSize)
	for pg := 0; pg < n; pg++ {
		th.Read(addr+uint64(pg*phys.PageSize), buf)
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("demand-zero page %d byte %d reads %#x", pg, i, b)
			}
		}
	}
}

// writtenFrames counts the frames the driver will clear before reuse.
func writtenFrames(d *Driver) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, w := range d.written {
		if w {
			n++
		}
	}
	return n
}

// dataFrames counts the frames holding a non-zero byte.
func dataFrames(d *Driver) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for f := range d.NumFrames() {
		if slices.ContainsFunc(d.frameData(int32(f)), func(b byte) bool { return b != 0 }) {
			n++
		}
	}
	return n
}

func TestFrameReuseReadsZero(t *testing.T) {
	const n = reuseFrames
	cases := []struct {
		name string
		// release writes frames through a and releases them; it
		// returns the thread whose fresh pages must then read zero.
		release func(t *testing.T, p *Platform, a *Enclave, th *Thread) *Thread
	}{
		{"ewb", func(t *testing.T, p *Platform, a *Enclave, th *Thread) *Thread {
			fillPages(th, a.AllocPages(n), n)
			return th
		}},
		{"ewb-other-enclave", func(t *testing.T, p *Platform, a *Enclave, th *Thread) *Thread {
			fillPages(th, a.AllocPages(n), n)
			b, err := p.NewEnclave()
			if err != nil {
				t.Fatal(err)
			}
			return enterThread(t, b)
		}},
		{"free-pages", func(t *testing.T, p *Platform, a *Enclave, th *Thread) *Thread {
			addr := a.AllocPages(n)
			fillPages(th, addr, n)
			a.FreePages(addr, n*phys.PageSize)
			return th
		}},
		// a's resident list keeps entries for the freed pages, so the
		// first reclaim for b picks a and must look past them.
		{"free-pages-other-enclave", func(t *testing.T, p *Platform, a *Enclave, th *Thread) *Thread {
			addr := a.AllocPages(n)
			fillPages(th, addr, n)
			b, err := p.NewEnclave()
			if err != nil {
				t.Fatal(err)
			}
			a.FreePages(addr, n*phys.PageSize)
			return enterThread(t, b)
		}},
		{"eldu-then-free", func(t *testing.T, p *Platform, a *Enclave, th *Thread) *Thread {
			// Seal n written pages out by reading n fresh ones, whose
			// demand-zero faults clear the frames; then ELDU the written
			// pages back over those clean pages and free them. The
			// ELDU'd frames hold data although no page on them is dirty.
			addr := a.AllocPages(n)
			fillPages(th, addr, n)
			requireZeroPages(t, th, a.AllocPages(n), n)
			buf := make([]byte, phys.PageSize)
			for pg := 0; pg < n; pg++ {
				th.Read(addr+uint64(pg*phys.PageSize), buf)
			}
			if p.Driver.Stats().PageIns != n {
				t.Fatalf("%d ELDU page-ins, want %d", p.Driver.Stats().PageIns, n)
			}
			a.FreePages(addr, n*phys.PageSize)
			return th
		}},
		{"destroy", func(t *testing.T, p *Platform, a *Enclave, th *Thread) *Thread {
			fillPages(th, a.AllocPages(n), n)
			a.Destroy()
			b, err := p.NewEnclave()
			if err != nil {
				t.Fatal(err)
			}
			return enterThread(t, b)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := testPlatform(t, reuseFrames*phys.PageSize)
			a, err := p.NewEnclave()
			if err != nil {
				t.Fatal(err)
			}
			reader := c.release(t, p, a, enterThread(t, a))
			if got := dataFrames(p.Driver); got != reuseFrames {
				t.Fatalf("%d of %d frames hold data before reuse", got, reuseFrames)
			}
			// 2n fresh pages: every frame is reused at least once, under
			// PRM pressure for whatever the release left resident.
			requireZeroPages(t, reader, reader.Enclave().AllocPages(2*n), 2*n)
		})
	}
}

func TestUnwrittenFramesAreNotCleared(t *testing.T) {
	p := testPlatform(t, reuseFrames*phys.PageSize)
	e, err := p.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := enterThread(t, e)
	// Read-only demand-zero pages under pressure, then freed: no frame
	// was ever written, so none needs clearing on its next use.
	addr := e.AllocPages(2 * reuseFrames)
	requireZeroPages(t, th, addr, 2*reuseFrames)
	e.FreePages(addr, 2*reuseFrames*phys.PageSize)
	if n := writtenFrames(p.Driver); n != 0 {
		t.Fatalf("%d frames marked written after read-only use", n)
	}
	if st := p.Driver.Stats(); st.Evictions == 0 || st.DemandZero != 2*reuseFrames {
		t.Fatalf("stats %+v: want evictions and %d demand-zero faults", st, 2*reuseFrames)
	}
}
