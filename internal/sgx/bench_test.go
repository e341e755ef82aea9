package sgx

import (
	"testing"

	"eleos/internal/cache"
)

// Host-speed microbenchmarks of one simulated 8-byte access, the fixed
// cost under every spointer hit, doorbell and metadata read: IPI check,
// TLB lookup, residency check and one LLC line, plus the copy. Both
// repeat one warm address, so the TLB and the LLC hit.

func BenchmarkEnclaveRead8(b *testing.B) {
	e, err := testPlatform(b, 4<<20).NewEnclave()
	if err != nil {
		b.Fatal(err)
	}
	th := enterThread(b, e)
	addr := e.Alloc(4096)
	var buf [8]byte
	th.Read(addr, buf[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Read(addr, buf[:])
	}
}

func BenchmarkHostRead8(b *testing.B) {
	p := testPlatform(b, 4<<20)
	th := p.NewHostThread(cache.CoSDefault)
	addr, err := p.Host.Alloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	var buf [8]byte
	th.Write(addr, buf[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Read(addr, buf[:])
	}
}
