// Quickstart: secure memory beyond the EPC size and exit-less system
// calls in a dozen lines, on the simulated SGX platform.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"eleos"
)

func main() {
	// A machine with 93MiB of usable PRM, plus the Eleos untrusted
	// runtime: four RPC workers (each with its own ring shard) behind a
	// 25%/75% LLC partition. eleos.NewRuntime() alone gives the paper's
	// defaults: two workers and the same partition.
	rt, err := eleos.NewRuntime(
		eleos.WithRPCWorkers(4),
		eleos.WithCATWays(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// An enclave with a 32MiB SUVM page cache (EPC++).
	encl, err := rt.NewEnclave(eleos.EnclaveConfig{PageCacheBytes: 32 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	// 256MiB of secure memory — nearly 3x the machine's entire PRM.
	// SUVM pages it against an encrypted backing store in untrusted
	// memory, entirely inside the enclave: no exits, no IPIs.
	p, err := ctx.Malloc(256 << 20)
	if err != nil {
		log.Fatal(err)
	}
	exits0, _, _, _, _ := encl.Raw().Stats().Snapshot()
	secret := []byte("sealed with AES-GCM when evicted")
	for off := uint64(0); off < p.Size(); off += 16 << 10 {
		if err := p.WriteAt(off, secret); err != nil {
			log.Fatal(err)
		}
	}
	buf := make([]byte, len(secret))
	if err := p.ReadAt(200<<20, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back from offset 200MiB: %q\n", buf)

	// An exit-less system call: delegated to an untrusted worker
	// through a job ring; the enclave never exits.
	ctx.Exitless(func(h *eleos.HostCtx) {
		h.Syscall(nil) // the kernel-side work of the call
	})

	// The asynchronous variant: Go returns a future and the enclave
	// keeps computing while the worker runs the call — the call's
	// latency hides behind the compute, and Wait charges only whatever
	// remains.
	fut := ctx.Go(func(h *eleos.HostCtx) { h.Syscall(nil) })
	if err := p.WriteAt(100<<20, secret); err != nil { // overlapped compute
		log.Fatal(err)
	}
	fut.Wait()

	// And the batched variant: one amortized submission for a burst of
	// calls, spread across the worker pool by work stealing.
	ctx.ExitlessBatch(
		func(h *eleos.HostCtx) { h.Syscall(nil) },
		func(h *eleos.HostCtx) { h.Syscall(nil) },
		func(h *eleos.HostCtx) { h.Syscall(nil) },
		func(h *eleos.HostCtx) { h.Syscall(nil) },
	)

	// One snapshot of the whole runtime: RPC pool, I/O engine, and every
	// enclave heap (and, with NewService, per-service rollups).
	st := rt.Stats().Heaps[0]
	exits1, _, _, _, _ := encl.Raw().Stats().Snapshot()
	fmt.Printf("SUVM: %d software page faults, %d evictions (%d write-backs, %d clean drops)\n",
		st.MajorFaults, st.Evictions, st.WriteBacks, st.CleanDrops)
	fmt.Printf("enclave exits while working: %d (paging and the syscall were exit-less)\n", exits1-exits0)
	fmt.Printf("virtual time consumed: %v\n", ctx.Elapsed())
}
