package cache

import (
	"testing"

	"eleos/internal/phys"
)

// Host-speed microbenchmarks of the LLC model. Cold variants stream
// through a footprint twice the cache's size, which under LRU misses on
// every line; warm variants touch the same lines every iteration.

func BenchmarkAccessHit(b *testing.B) {
	c, th := newLLC(b)
	c.Access(th, CoSEnclave, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(th, CoSEnclave, 0, false)
	}
}

func BenchmarkAccessMiss(b *testing.B) {
	c, th := newLLC(b)
	lines := uint64(2 * c.SizeBytes() / LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(th, CoSEnclave, uint64(i)%lines*LineSize, false)
	}
}

func BenchmarkAccessRange4KWarm(b *testing.B) {
	c, th := newLLC(b)
	c.AccessRange(th, CoSEnclave, 0, 4096, false)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRange(th, CoSEnclave, 0, 4096, false)
	}
}

func BenchmarkAccessRange4KCold(b *testing.B) {
	benchStream(b, 4096)
}

// BenchmarkAccessRange232KStream streams values the size of one
// face-verification identity's descriptor set.
func BenchmarkAccessRange232KStream(b *testing.B) {
	benchStream(b, 232<<10)
}

func benchStream(b *testing.B, n int) {
	c, th := newLLC(b)
	chunks := uint64(2 * c.SizeBytes() / n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRange(th, CoSEnclave, uint64(i)%chunks*uint64(n), n, false)
	}
}

func BenchmarkInstallRange4K(b *testing.B) {
	c, th := newLLC(b)
	pages := uint64(2 * c.SizeBytes() / 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InstallRange(th, CoSEnclave, uint64(i)%pages*4096, 4096)
	}
}

// TestHotPathZeroAlloc pins the //eleos:hotpath budget=0 contract of
// Access, AccessRange and InstallRange dynamically.
func TestHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	c, th := newLLC(t)
	var paddr uint64
	allocs := testing.AllocsPerRun(1000, func() {
		c.Access(th, CoSEnclave, paddr, false)
		c.AccessRange(th, CoSRPC, phys.HostBase+paddr, 4096, true)
		c.InstallRange(th, CoSEnclave, paddr+4096, 4096)
		paddr += 8192
	})
	if allocs != 0 {
		t.Fatalf("LLC hot path allocates %.1f per op, budget is 0", allocs)
	}
}
