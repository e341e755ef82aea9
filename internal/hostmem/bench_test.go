package hostmem

import "testing"

// BenchmarkArenaReadAt reads ranges the size of one face-verification
// identity's descriptor set (232 KiB) from written chunks, which copy,
// and from never-written chunks, which read as zero.
func BenchmarkArenaReadAt(b *testing.B) {
	const n = 232 << 10
	for _, bc := range []struct {
		name    string
		touched bool
	}{{"touched", true}, {"untouched", false}} {
		b.Run(bc.name, func(b *testing.B) {
			a, _ := NewArena(1 << 30)
			addr, err := a.Alloc(chunkSize)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, n)
			if bc.touched {
				a.WriteAt(addr, buf)
			}
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ReadAt(addr, buf)
			}
		})
	}
}

// BenchmarkArenaReadAt8 reads one 8-byte word from a written chunk, the
// arena's share of a simulated metadata read or doorbell.
func BenchmarkArenaReadAt8(b *testing.B) {
	a, _ := NewArena(16 << 30)
	addr, err := a.Alloc(chunkSize)
	if err != nil {
		b.Fatal(err)
	}
	var buf [8]byte
	a.WriteAt(addr, buf[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ReadAt(addr, buf[:])
	}
}
