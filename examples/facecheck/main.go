// Face verification end to end on the real LBP pipeline: enroll a
// small population, verify genuine captures and impostor attempts, and
// show that the SUVM-backed database answered without a single enclave
// exit.
//
//	go run ./examples/facecheck
package main

import (
	"fmt"
	"log"

	"eleos/internal/exitio"
	"eleos/internal/faceverify"
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
	heap, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 16 << 20, BackingBytes: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}

	const population = 12
	fmt.Printf("enrolling %d identities (%d KiB descriptor each, real LBP)...\n",
		population, faceverify.DescriptorBytes>>10)
	store, err := faceverify.NewStore(plat, th, faceverify.Config{
		Identities: population,
		Placement:  faceverify.PlaceSUVM,
		Heap:       heap,
		Synthetic:  false,
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
	srv := faceverify.NewServerIO(store, eng)
	defer srv.Close()

	exits0, _, _, _, _ := encl.Stats().Snapshot()

	// Genuine attempts: a fresh capture (variant > 0) of each identity.
	accepted := 0
	for id := uint64(0); id < population; id++ {
		ok, err := srv.Verify(th, id, 1+id)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			accepted++
		}
	}
	fmt.Printf("genuine captures accepted: %d/%d\n", accepted, population)

	// Impostor attempts: identity i claims to be identity i+1. The
	// server compares i+1's enrolled descriptor with a capture rendered
	// from i's face.
	rejected := 0
	for id := uint64(0); id < population-1; id++ {
		img := faceverify.SynthImage(id, 7)
		query := faceverify.LBPDescriptor(img)
		enrolled := make([]byte, faceverify.DescriptorBytes)
		n, err := store.Lookup(th, id+1, enrolled)
		if err != nil {
			log.Fatal(err)
		}
		if faceverify.ChiSquare(query, enrolled[:n]) >= faceverify.VerifyThreshold {
			rejected++
		}
	}
	fmt.Printf("impostor attempts rejected: %d/%d\n", rejected, population-1)

	exits1, _, _, _, _ := encl.Stats().Snapshot()
	st := heap.Stats()
	fmt.Printf("\nSUVM software faults: %d, hardware enclave exits during serving: %d\n",
		st.MajorFaults, exits1-exits0)
}
