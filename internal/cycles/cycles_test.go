package cycles

import (
	"sync"
	"testing"
)

func TestChargeAndConvert(t *testing.T) {
	m := DefaultModel()
	th := NewThread(1, m)
	th.Charge(3_400_000_000)
	if got := th.Seconds(); got < 0.999 || got > 1.001 {
		t.Fatalf("3.4G cycles = %v s, want 1s at 3.4GHz", got)
	}
	if got := m.Cycles(2.0); got != 6_800_000_000 {
		t.Fatalf("2s = %d cycles", got)
	}
	th.Reset()
	if th.Cycles() != 0 {
		t.Fatal("reset did not zero")
	}
}

func TestEPCMissCycles(t *testing.T) {
	m := DefaultModel()
	if m.EPCMissCycles(false, false) != m.DRAMMiss {
		t.Fatal("host read miss")
	}
	if got := m.EPCMissCycles(false, true); got != uint64(float64(m.DRAMMiss)*m.EPCReadMult) {
		t.Fatalf("EPC read miss %d", got)
	}
	if m.EPCMissCycles(true, true) <= m.EPCMissCycles(false, true) {
		t.Fatal("EPC writes must cost more than reads (Table 1)")
	}
}

func TestExitRoundTripMatchesPaper(t *testing.T) {
	m := DefaultModel()
	// §2.2: EEXIT+EENTER+SDK overhead ≈ 8,000 cycles, an order of
	// magnitude above a 250-cycle syscall.
	rt := m.ExitRoundTrip()
	if rt < 7000 || rt > 9000 {
		t.Fatalf("exit round trip %d, want ≈8k", rt)
	}
	if rt < 10*m.Syscall {
		t.Fatal("exit must dwarf a regular syscall")
	}
}

func TestConcurrentChargeIsLossless(t *testing.T) {
	th := NewThread(1, DefaultModel())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				th.Charge(3)
			}
		}()
	}
	wg.Wait()
	if got := th.Cycles(); got != 8*10000*3 {
		t.Fatalf("lost charges: %d", got)
	}
}

func TestAESCycles(t *testing.T) {
	m := DefaultModel()
	if m.AESCycles(0) != m.AESSetup {
		t.Fatal("zero-byte AES must cost setup only")
	}
	if m.AESCycles(4096) <= m.AESCycles(1024) {
		t.Fatal("AES cost must grow with size")
	}
}
