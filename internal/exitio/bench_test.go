package exitio_test

import (
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/fsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

// BenchmarkSubmitAndWaitLinked measures the host cost of one 2-op
// linked rpc-async chain (Pwrite then Pread of one 256-byte block)
// through a warm queue on a 1-worker pool: staging, doorbell, the
// worker-side run and the reap.
func BenchmarkSubmitAndWaitLinked(b *testing.B) {
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		b.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	pool := rpc.NewPool(plat, 1, 64)
	pool.Start()
	defer pool.Stop()
	eng, err := exitio.NewEngine(exitio.ModeRPCAsync, pool)
	if err != nil {
		b.Fatal(err)
	}
	fs := fsim.NewFS(plat)
	q := eng.NewQueue()
	q.Push(exitio.Open{FS: fs, Name: "/bench"})
	cqes, err := q.SubmitAndWait(th)
	if err != nil || exitio.FirstErr(cqes) != nil {
		b.Fatalf("open: %v %v", err, exitio.FirstErr(cqes))
	}
	data := make([]byte, 256)
	// Pointer ops box into the Op interface without a heap copy.
	pw := &exitio.Pwrite{FS: fs, FD: cqes[0].N, Data: data}
	pr := &exitio.Pread{FS: fs, FD: cqes[0].N, Buf: data}
	cycle := func() {
		q.Push(pw)
		q.PushLinked(pr)
		if got, err := q.SubmitAndWait(th); err != nil || exitio.FirstErr(got) != nil {
			b.Fatalf("cycle: %v %v", err, exitio.FirstErr(got))
		}
	}
	cycle() // warm the chain pool, request pool and CQE buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
