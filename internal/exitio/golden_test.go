package exitio_test

import (
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/fsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

// pipelineFingerprint is {caller cycles, caller in-enclave cycles,
// settled worker execution cycles, LLC misses}.
type pipelineFingerprint [4]uint64

// goldenPipeline was captured before waiting submitters started running
// their own calls on the worker's thread. Who supplies the host CPU for
// a call must not change what it costs: the same ring order on the same
// worker clock, TLB and cache class, and the same residual settled at
// each reap, so the figures stay bit-identical.
var goldenPipeline = pipelineFingerprint{1969080, 1720000, 2080320, 64512}

// pipelineGoldenWorkload drives a pipelined rpc-async queue on a
// 1-worker pool: per iteration four linked Pwrite+Pread chains are
// submitted, the caller computes (a pure cycle charge, no LLC traffic,
// so worker cache state evolves the same whoever runs the chains), and
// WaitN reaps all eight completions. The compute varies per iteration
// so some reaps hide the whole chain and others settle a residual.
func pipelineGoldenWorkload(t *testing.T) pipelineFingerprint {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	pool := rpc.NewPool(plat, 1, 64)
	pool.Start()
	defer pool.Stop()
	eng, err := exitio.NewEngine(exitio.ModeRPCAsync, pool)
	if err != nil {
		t.Fatal(err)
	}
	fs := fsim.NewFS(plat)
	q := eng.NewQueue()
	q.Push(exitio.Open{FS: fs, Name: "/pipe"})
	cqes, err := q.SubmitAndWait(th)
	if err != nil || exitio.FirstErr(cqes) != nil {
		t.Fatalf("open: %v %v", err, exitio.FirstErr(cqes))
	}
	fd := cqes[0].N
	th.T.Reset()
	th.ResetEnclaveCycles()
	plat.LLC.ResetStats()
	settled0 := pool.Stats().SettledWorkCycles

	const chains, iters = 4, 200
	data := make([]byte, 512)
	buf := make([]byte, 512)
	for i := 0; i < iters; i++ {
		for c := 0; c < chains; c++ {
			off := uint64((i*chains + c) % 64 * len(data))
			q.Push(exitio.Pwrite{FS: fs, FD: fd, Off: off, Data: data})
			q.PushLinked(exitio.Pread{FS: fs, FD: fd, Off: off, Buf: buf})
		}
		if err := q.Submit(th); err != nil {
			t.Fatal(err)
		}
		th.T.Charge(uint64(i%5) * 4000)
		got := q.WaitN(th, 2*chains)
		if len(got) != 2*chains || exitio.FirstErr(got) != nil {
			t.Fatalf("iteration %d: %d completions, err %v", i, len(got), exitio.FirstErr(got))
		}
	}
	return pipelineFingerprint{
		th.T.Cycles(),
		th.SyncEnclaveCycles(),
		pool.Stats().SettledWorkCycles - settled0,
		plat.LLC.Stats().Misses,
	}
}

func TestPipelinedAsyncGolden(t *testing.T) {
	if got := pipelineGoldenWorkload(t); got != goldenPipeline {
		t.Fatalf("pipelined rpc-async fingerprint diverged:\n got  %v\n want %v\n(fields: caller cycles, in-enclave cycles, settled worker cycles, LLC misses)", got, goldenPipeline)
	}
}
