package rpc

import (
	"testing"

	"eleos/internal/sgx"
)

// Host-speed microbenchmarks of the three submission paths on a
// 1-worker pool: what one exit-less call costs the simulator, not the
// virtual cycles it charges. benchWork is a package-level function so
// the loops pass a static func value and allocate nothing of their own;
// one warm-up call fills the request pool before the timer starts.

func benchWork(h *sgx.HostCtx) { h.Syscall(nil) }

func BenchmarkCall(b *testing.B) {
	_, th, pool := newAsyncEnv(b, 1)
	if err := pool.Call(th, benchWork); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Call(th, benchWork); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallAsyncWait(b *testing.B) {
	_, th, pool := newAsyncEnv(b, 1)
	if err := pool.Call(th, benchWork); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := pool.CallAsync(th, benchWork)
		if err != nil {
			b.Fatal(err)
		}
		f.Wait(th)
	}
}

func BenchmarkCallBatch8(b *testing.B) {
	_, th, pool := newAsyncEnv(b, 1)
	fns := make([]func(*sgx.HostCtx), 8)
	for i := range fns {
		fns[i] = benchWork
	}
	if err := pool.CallBatch(th, fns); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.CallBatch(th, fns); err != nil {
			b.Fatal(err)
		}
	}
}
