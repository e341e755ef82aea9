package faceverify

import (
	"bytes"
	"encoding/binary"
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

func TestLBPDeterministicAndShaped(t *testing.T) {
	img := SynthImage(1, 0)
	d1 := LBPDescriptor(img)
	d2 := LBPDescriptor(SynthImage(1, 0))
	if !bytes.Equal(d1, d2) {
		t.Fatal("LBP of identical images differs")
	}
	if len(d1) != DescriptorBytes {
		t.Fatalf("descriptor length %d want %d", len(d1), DescriptorBytes)
	}
	if DescriptorBytes != 232<<10 {
		t.Fatalf("descriptor must be exactly 232 KiB, got %d", DescriptorBytes)
	}
	// Interior cells histogram to the cell pixel count.
	cell := (GridSide + 1) // row 1, col 1: fully interior
	var sum uint32
	for b := 0; b < Bins; b++ {
		sum += binary.LittleEndian.Uint32(d1[(cell*Bins+b)*4:])
	}
	if sum != CellSide*CellSide {
		t.Fatalf("interior cell mass %d want %d", sum, CellSide*CellSide)
	}
}

func TestVerificationSeparatesIdentities(t *testing.T) {
	// Same identity, different captures: small distance. Different
	// identities: large distance. The threshold must separate them.
	enrolled := LBPDescriptor(SynthImage(7, 0))
	same := LBPDescriptor(SynthImage(7, 1))
	other := LBPDescriptor(SynthImage(8, 1))
	dSame := ChiSquare(enrolled, same)
	dOther := ChiSquare(enrolled, other)
	if dSame >= VerifyThreshold {
		t.Fatalf("genuine capture rejected: distance %.0f >= %d", dSame, VerifyThreshold)
	}
	if dOther <= VerifyThreshold {
		t.Fatalf("impostor accepted: distance %.0f <= %d", dOther, VerifyThreshold)
	}
	if dOther < 3*dSame {
		t.Fatalf("weak separation: same=%.0f other=%.0f", dSame, dOther)
	}
}

func TestUniformMapCoversAllCodes(t *testing.T) {
	for code := 0; code < 256; code++ {
		if int(uniformBin[code]) >= Bins {
			t.Fatalf("code %d maps to out-of-range bin %d", code, uniformBin[code])
		}
	}
	// All 58 bins must be reachable.
	seen := map[uint8]bool{}
	for code := 0; code < 256; code++ {
		seen[uniformBin[code]] = true
	}
	if len(seen) != Bins {
		t.Fatalf("only %d of %d bins reachable", len(seen), Bins)
	}
}

func TestEndToEndVerifyServer(t *testing.T) {
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	encl, _ := plat.NewEnclave()
	th := encl.NewThread()
	th.Enter()
	heap, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 8 << 20, BackingBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(plat, th, Config{
		Identities: 8,
		Placement:  PlaceSUVM,
		Heap:       heap,
		Synthetic:  false, // real LBP end to end
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := rpc.NewPool(plat, 1, 64)
	pool.Start()
	defer pool.Stop()
	eng, err := exitio.NewEngine(exitio.ModeRPCSync, pool)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerIO(store, eng)
	defer srv.Close()

	ok, err := srv.Verify(th, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("genuine verification rejected")
	}
	// The store only knows identities 0..7; an unknown claim errors.
	if _, err := srv.Verify(th, 99, 1); err == nil {
		t.Fatal("verification of unknown identity did not error")
	}
	// RPC mode must not exit the enclave.
	exits, _, _, _, _ := encl.Stats().Snapshot()
	before := exits
	if _, err := srv.Verify(th, 4, 2); err != nil {
		t.Fatal(err)
	}
	exits, _, _, _, _ = encl.Stats().Snapshot()
	if exits != before {
		t.Fatalf("RPC-mode verification exited the enclave %d times", exits-before)
	}
}

func TestSynthDescriptorShape(t *testing.T) {
	d := SynthDescriptor(42)
	if len(d) != DescriptorBytes {
		t.Fatalf("length %d", len(d))
	}
	if !bytes.Equal(d, SynthDescriptor(42)) {
		t.Fatal("synthetic descriptor not deterministic")
	}
	if bytes.Equal(d, SynthDescriptor(43)) {
		t.Fatal("distinct identities got identical descriptors")
	}
	for cell := 0; cell < GridSide*GridSide; cell++ {
		var sum uint32
		for b := 0; b < Bins; b++ {
			sum += binary.LittleEndian.Uint32(d[(cell*Bins+b)*4:])
		}
		if sum != CellSide*CellSide {
			t.Fatalf("cell %d mass %d want %d", cell, sum, CellSide*CellSide)
		}
	}
}
