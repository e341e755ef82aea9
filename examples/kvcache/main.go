// A memcached-style cache with the paper's §5.1 split: hash chains, LRU
// links and slab bookkeeping in untrusted memory in the clear; keys,
// values and their sizes sealed behind SUVM. Fills the cache past its
// memory limit to show LRU eviction, then past the PRM size to show
// exit-less paging.
//
//	go run ./examples/kvcache
package main

import (
	"fmt"
	"log"

	"eleos/internal/exitio"
	"eleos/internal/mckv"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

func main() {
	plat, err := sgx.NewPlatform(sgx.Config{})
	if err != nil {
		log.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		log.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	heap, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 48 << 20, BackingBytes: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}

	// 160MiB of cache: well beyond the 93MiB of usable PRM. Under
	// vanilla SGX every miss on this pool would be a 40k-cycle
	// hardware fault with an enclave exit; under SUVM it is an ~8.5k
	// in-enclave software fault.
	store, err := mckv.NewStore(plat, th, mckv.Config{
		MemLimitBytes: 160 << 20,
		Placement:     mckv.PlaceSUVM,
		Heap:          heap,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := rpc.NewPool(plat, 2, 128)
	pool.Start()
	defer pool.Stop()
	eng, err := exitio.NewEngine(exitio.ModeRPCSync, pool)
	if err != nil {
		log.Fatal(err)
	}
	srv := mckv.NewServerIO(store, eng)
	defer srv.Close()

	hwBase := plat.Driver.Stats().Faults // setup faults (EPC++ pinning, metadata)
	val := make([]byte, 4096)
	const items = 50_000 // ~200MiB of values: exceeds the pool -> LRU kicks in
	fmt.Printf("setting %d 4KiB items into a 160MiB pool...\n", items)
	for i := 0; i < items; i++ {
		key := []byte(fmt.Sprintf("item-%08d", i))
		for j := range val {
			val[j] = byte(i)
		}
		if err := srv.ServeSet(th, key, val); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("live items: %d, LRU evictions: %d, pool in use: %dMiB\n",
		store.ItemCount(), store.Evictions(), store.BytesUsed()>>20)

	// Recent items hit; the oldest were LRU-evicted.
	if n, err := srv.ServeGet(th, []byte(fmt.Sprintf("item-%08d", items-1))); err != nil || n != 4096 {
		log.Fatalf("newest item lost: n=%d err=%v", n, err)
	}
	if _, err := srv.ServeGet(th, []byte("item-00000000")); err == nil {
		log.Fatal("oldest item unexpectedly survived")
	}
	fmt.Println("LRU behaviour verified (newest present, oldest evicted)")

	st := heap.Stats()
	d := plat.Driver.Stats()
	fmt.Printf("\nSUVM faults: %d (all handled in-enclave) | hardware EPC faults while serving: %d | shootdown IPIs: %d\n",
		st.MajorFaults, d.Faults-hwBase, d.IPIs)
}
