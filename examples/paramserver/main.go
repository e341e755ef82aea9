// The paper's §2 motivating workload as a library example: one
// parameter server, three execution modes, one table. Prints the
// slowdown story of Fig 1 at a small scale.
//
//	go run ./examples/paramserver
package main

import (
	"fmt"
	"log"

	"eleos/internal/cache"
	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/pserver"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

const (
	dataBytes = 16 << 20 // fits the SUVM page cache: the comparison
	// isolates the cost of exits, like the paper's 2MB/64MB columns
	requests = 5000
)

func run(name string, placement pserver.Placement, mode exitio.Mode) float64 {
	plat, err := sgx.NewPlatform(sgx.Config{})
	if err != nil {
		log.Fatal(err)
	}
	var th *sgx.Thread
	var heap *suvm.Heap
	var pool *rpc.Pool
	if placement == pserver.PlaceHost {
		th = plat.NewHostThread(cache.CoSDefault)
	} else {
		encl, err := plat.NewEnclave()
		if err != nil {
			log.Fatal(err)
		}
		th = encl.NewThread()
		th.Enter()
		if placement == pserver.PlaceSUVM {
			heap, err = suvm.New(encl, th, suvm.Config{PageCacheBytes: 24 << 20, BackingBytes: 1 << 30})
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	if mode.NeedsPool() {
		pool = rpc.NewPool(plat, 2, 128)
		pool.Start()
		defer pool.Stop()
		plat.LLC.EnablePartitioning(4)
	}
	eng, err := exitio.NewEngine(mode, pool)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := pserver.New(plat, th, pserver.Config{
		DataBytes: dataBytes,
		Layout:    kv.OpenAddressing,
		Placement: placement,
		Heap:      heap,
		Engine:    eng,
		Encrypted: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	gen := loadgen.NewKeyGen(1, srv.Entries())
	keys := make([]uint64, 1)
	th.T.Reset()
	for i := 0; i < requests; i++ {
		if err := srv.ServeRequest(th, gen.Batch(keys)); err != nil {
			log.Fatal(err)
		}
	}
	perReq := float64(th.T.Cycles()) / requests
	fmt.Printf("%-28s %8.0f cycles/request\n", name, perReq)
	return perReq
}

func main() {
	fmt.Printf("parameter server, %dMB of data, %d single-update requests\n\n",
		dataBytes>>20, requests)
	base := run("untrusted (no SGX)", pserver.PlaceHost, exitio.ModeDirect)
	sgxCyc := run("SGX + OCALL syscalls", pserver.PlaceEnclave, exitio.ModeOCall)
	eleos := run("Eleos (SUVM + exit-less RPC)", pserver.PlaceSUVM, exitio.ModeRPCSync)
	fmt.Printf("\nSGX slowdown over untrusted:   %.1fx\n", sgxCyc/base)
	fmt.Printf("Eleos slowdown over untrusted: %.1fx\n", eleos/base)
	fmt.Printf("Eleos speedup over SGX:        %.1fx\n", sgxCyc/eleos)
}
