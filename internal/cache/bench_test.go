package cache

import (
	"testing"

	"eleos/internal/cycles"
	"eleos/internal/phys"
)

// Host-speed microbenchmarks of the LLC model. Cold variants stream
// through a footprint twice the cache's size, which under LRU misses on
// every line; warm variants touch the same lines every iteration. The
// CAT variant streams as an Eleos RPC worker does, confined to four
// ways whose lines sit at the top of each set's recency order.

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
	c, th := newLLC(b)
	benchStream(b, c, th, CoSEnclave, 4096)
}

func BenchmarkAccessRange4KColdCAT(b *testing.B) {
	c, th := newLLC(b)
	c.EnablePartitioning(4)
	benchStream(b, c, th, CoSRPC, 4096)
}

// BenchmarkAccessRange232KStream streams values the size of one
// face-verification identity's descriptor set.
func BenchmarkAccessRange232KStream(b *testing.B) {
	c, th := newLLC(b)
	benchStream(b, c, th, CoSEnclave, 232<<10)
}

func benchStream(b *testing.B, c *LLC, th *cycles.Thread, cos CoS, n int) {
	chunks := uint64(2 * c.SizeBytes() / n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRange(th, cos, uint64(i)%chunks*uint64(n), n, false)
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
