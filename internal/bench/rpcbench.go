package bench

import (
	"eleos/internal/report"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

func init() {
	register("rpc-async", "Async and batched exit-less RPC vs synchronous Call", runRPCAsync)
}

// asyncWindow is the pipeline depth per worker for the CallAsync mode;
// batchSize is the CallBatch burst size.
const (
	asyncWindow = 2
	batchSize   = 16
)

// runRPCAsync measures the caller-side throughput of the three
// submission modes of the exit-less RPC engine — synchronous Call,
// pipelined CallAsync, and CallBatch — across pool sizes, and then
// sweeps the compute overlap available to a single async call to show
// the residual-latency accounting at work. The peak queue depth from
// Pool.Stats shows how far the pipelined and batched submissions run
// ahead of the workers.
func runRPCAsync(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	ops := rc.Ops

	t1 := report.New("Caller throughput by submission mode (Kops/s, single caller)",
		"workers", "sync", "async", "batch", "async/sync", "batch/sync", "peak depth")
	t1.Note = "async pipelines 2 calls/worker; batch submits bursts of 16; counters from async+batch pools"

	for _, workers := range []int{1, 2, 4, 8} {
		syncTput := rpcSyncRun(workers, ops)
		asyncTput, asyncStats := rpcAsyncRun(workers, ops)
		batchTput, batchStats := rpcBatchRun(workers, ops)
		peak := asyncStats.PeakQueueDepth
		if batchStats.PeakQueueDepth > peak {
			peak = batchStats.PeakQueueDepth
		}
		t1.AddRow(workers,
			syncTput/1e3, asyncTput/1e3, batchTput/1e3,
			asyncTput/syncTput, batchTput/syncTput,
			peak)
	}

	t2 := report.New("Async latency hiding: cycles/op vs compute overlapped with one in-flight call (4 workers)",
		"overlap cycles", "sync", "async", "hidden %")
	t2.Note = "sync = Call + compute; async = CallAsync, compute, Wait — residual-only charging"
	for _, overlap := range []uint64{0, 100, 250, 500, 1000} {
		syncPer, asyncPer := rpcOverlapRun(4, ops/2, overlap)
		t2.AddRow(overlap, syncPer, asyncPer, 100*(1-asyncPer/syncPer))
	}

	return &Result{
		ID:     "rpc-async",
		Title:  "Async and batched exit-less RPC vs synchronous Call",
		Tables: []*report.Table{t1, t2},
	}, nil
}

func rpcWork(h *sgx.HostCtx) { h.Syscall(nil) }

// rpcEnv builds a fresh enclave environment with a W-worker pool and
// runs warm ops before resetting the caller's counters.
func rpcEnv(workers int) *env {
	v := enclaveEnv(0).withPool(workers)
	for i := 0; i < 64; i++ {
		if err := v.pool.Call(v.th, rpcWork); err != nil {
			panic(err)
		}
	}
	resetCounters(v.plat, v.th, v.heap)
	return v
}

func rpcSyncRun(workers, ops int) float64 {
	v := rpcEnv(workers)
	defer v.close()
	for i := 0; i < ops; i++ {
		if err := v.pool.Call(v.th, rpcWork); err != nil {
			panic(err)
		}
	}
	return float64(ops) / v.plat.Model.Seconds(v.th.T.Cycles())
}

func rpcAsyncRun(workers, ops int) (float64, rpc.Stats) {
	v := rpcEnv(workers)
	defer v.close()
	window := asyncWindow * workers
	pending := make([]*rpc.Future, 0, window)
	for i := 0; i < ops; i++ {
		f, err := v.pool.CallAsync(v.th, rpcWork)
		if err != nil {
			panic(err)
		}
		pending = append(pending, f)
		if len(pending) == window {
			pending[0].Wait(v.th)
			pending = append(pending[:0], pending[1:]...)
		}
	}
	for _, f := range pending {
		f.Wait(v.th)
	}
	return float64(ops) / v.plat.Model.Seconds(v.th.T.Cycles()), v.pool.Stats()
}

func rpcBatchRun(workers, ops int) (float64, rpc.Stats) {
	v := rpcEnv(workers)
	defer v.close()
	fns := make([]func(*sgx.HostCtx), batchSize)
	for i := range fns {
		fns[i] = rpcWork
	}
	done := 0
	for done < ops {
		if err := v.pool.CallBatch(v.th, fns); err != nil {
			panic(err)
		}
		done += batchSize
	}
	return float64(done) / v.plat.Model.Seconds(v.th.T.Cycles()), v.pool.Stats()
}

// rpcOverlapRun compares one synchronous call plus `overlap` cycles of
// compute against the async submit-compute-wait pattern.
func rpcOverlapRun(workers, ops int, overlap uint64) (syncPer, asyncPer float64) {
	v := rpcEnv(workers)
	for i := 0; i < ops; i++ {
		if err := v.pool.Call(v.th, rpcWork); err != nil {
			panic(err)
		}
		v.th.T.Charge(overlap)
	}
	syncPer = perOp(v.th.T.Cycles(), ops)
	v.close()

	v = rpcEnv(workers)
	defer v.close()
	for i := 0; i < ops; i++ {
		f, err := v.pool.CallAsync(v.th, rpcWork)
		if err != nil {
			panic(err)
		}
		v.th.T.Charge(overlap) // the compute the call's latency hides behind
		f.Wait(v.th)
	}
	asyncPer = perOp(v.th.T.Cycles(), ops)
	return syncPer, asyncPer
}
