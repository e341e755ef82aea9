package tlb

import "testing"

// Host-speed microbenchmarks of the TLB model. The miss variant cycles
// through twice the entry count, which under round-robin replacement
// misses on every access; FlushEPC runs on a TLB full of enclave and
// host translations.

func BenchmarkAccessHit(b *testing.B) {
	tl, th := newTLB(b)
	tl.Access(th, 7, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Access(th, 7, true)
	}
}

func BenchmarkAccessMiss(b *testing.B) {
	tl, th := newTLB(b)
	pages := uint64(2 * len(tl.entries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Access(th, uint64(i)%pages, true)
	}
}

func BenchmarkFlushEPC(b *testing.B) {
	tl, th := newTLB(b)
	for vp := uint64(0); vp < uint64(len(tl.entries)); vp++ {
		tl.Access(th, vp, vp%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.FlushEPC()
	}
}
