package suvm

import "testing"

// Host-speed microbenchmarks of the SUVM data path and of ballooning.
// LinkedHit is an access through a linked spointer (no page-table
// lookup); MinorFault an unlinked access to a resident page; MajorFault
// cycles sequentially through a clean working set twice EPC++, so every
// access pages in and the clock evictor drops a clean victim; Resize is
// one shrink-to-half and grow-back pair on a domain-less heap.

// benchHeap returns a 1 MiB (256-frame) heap and an allocation of the
// given number of 4 KiB pages, each written once.
func benchHeap(b *testing.B, pages int) (*testEnv, *SPtr) {
	b.Helper()
	e := newEnv(b, Config{PageCacheBytes: 1 << 20, BackingBytes: 64 << 20})
	p, err := e.h.Malloc(uint64(pages) << 12)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 0; i < pages; i++ {
		if err := p.WriteAt(e.th, uint64(i)<<12, buf); err != nil {
			b.Fatal(err)
		}
	}
	return e, p
}

func BenchmarkLinkedHit(b *testing.B) {
	e, p := benchHeap(b, 1)
	var buf [8]byte
	if err := p.Read(e.th, buf[:]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Read(e.th, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinorFault(b *testing.B) {
	e, p := benchHeap(b, 1)
	var buf [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ReadAt(e.th, 0, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMajorFault(b *testing.B) {
	const pages = 2 * 256
	e, p := benchHeap(b, pages)
	var buf [8]byte
	// One read pass leaves every resident page clean, so the timed
	// evictions are all clean drops.
	for i := 0; i < pages; i++ {
		if err := p.ReadAt(e.th, uint64(i)<<12, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ReadAt(e.th, uint64(i%pages)<<12, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResize(b *testing.B) {
	e, _ := benchHeap(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.h.ResizeTo(e.th, 512<<10); err != nil {
			b.Fatal(err)
		}
		if err := e.h.ResizeTo(e.th, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
