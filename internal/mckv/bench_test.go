package mckv

import (
	"fmt"
	"testing"
)

// BenchmarkGet is a Get hit on a warm SUVM store of 1,000 small items,
// the kv-hot request's store half.
func BenchmarkGet(b *testing.B) {
	e := newEnv(b)
	s := e.store(b, PlaceSUVM, 8<<20)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if err := s.Set(e.th, keys[i], make([]byte, 32)); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	for _, k := range keys {
		if _, err := s.Get(e.th, k, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(e.th, keys[i%len(keys)], buf); err != nil {
			b.Fatal(err)
		}
	}
}
