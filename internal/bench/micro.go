package bench

import (
	"math/rand"

	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/phys"
	"eleos/internal/pserver"
	"eleos/internal/report"
)

func init() {
	register("fig1", "Parameter-server slowdown in enclave vs untrusted, with and without Eleos", fig1)
	register("tab1", "Relative cost of LLC misses: EPC vs untrusted memory", tab1)
	register("fig2a", "LLC pollution cost of system calls (in-enclave time, 64MB server, hot 8MB)", fig2a)
	register("fig2b", "TLB flush cost: open addressing vs chaining (in-enclave time, 2MB server)", fig2b)
	register("fig6a", "RPC eliminates EENTER/EEXIT direct costs (end-to-end slowdown vs untrusted)", fig6a)
	register("fig6b", "Cache partitioning (CAT) reduces RPC-worker LLC pollution (in-enclave time)", fig6b)
	register("fig6c", "RPC eliminates TLB flushes (in-enclave time, chaining table)", fig6c)
}

// psArm is one parameter-server configuration: where the table lives,
// how its socket dispatches, the EPC++ size (0 = no SUVM heap) and
// whether the RPC workers get their CAT partition (see armEnv).
type psArm struct {
	placement pserver.Placement
	mode      exitio.Mode
	epcpp     uint64
	cat       bool
}

var (
	psHost   = psArm{pserver.PlaceHost, exitio.ModeDirect, 0, false}
	psOCall  = psArm{pserver.PlaceEnclave, exitio.ModeOCall, 0, false}
	psRPC    = psArm{pserver.PlaceEnclave, exitio.ModeRPCSync, 0, false}
	psRPCCAT = psArm{pserver.PlaceEnclave, exitio.ModeRPCSync, 0, true}
	psEleos  = psArm{pserver.PlaceSUVM, exitio.ModeRPCSync, 60 << 20, true}
)

// run builds the arm's server over size bytes of encrypted parameters
// in layout, serves ops/10 warm-up requests and then ops measured ones,
// each updating nkeys random keys (drawn from the first hot keys when
// hot > 0), and returns the measured end-to-end and in-enclave cycles.
func (a psArm) run(size uint64, layout kv.Layout, ops, nkeys int, hot uint64) (end, inEncl uint64) {
	v, eng := armEnv(a.placement == pserver.PlaceHost, a.epcpp, a.mode, a.cat)
	defer v.close()
	srv, err := pserver.New(v.plat, v.th, pserver.Config{
		DataBytes: size, Layout: layout, Placement: a.placement,
		Heap: v.heap, Engine: eng, Encrypted: true,
	})
	must(err)
	defer srv.Close()
	gen := loadgen.NewKeyGen(1, srv.Entries())
	if hot > 0 {
		gen.HotSet(hot)
	}
	keys := make([]uint64, nkeys)
	for i := 0; i < ops/10+ops; i++ {
		if i == ops/10 {
			resetCounters(v.plat, v.th, v.heap)
		}
		must(srv.ServeRequest(v.th, gen.Batch(keys)))
	}
	return v.th.T.Cycles(), v.th.SyncEnclaveCycles()
}

// fig1: three data sizes (LLC-sized, EPC-sized, beyond-EPC), untrusted
// vs vanilla SGX vs Eleos (RPC + SUVM + CAT). 100k random single-value
// updates. Paper: 9x/12x/34x slowdown for SGX; Eleos recovers most.
func fig1(rc RunConfig) (*Result, error) {
	sizes := []uint64{2 << 20, 64 << 20, 512 << 20}
	if rc.Quick {
		sizes = []uint64{2 << 20, 32 << 20, 192 << 20}
	}
	t := report.New("Fig 1: parameter server slowdown over untrusted execution",
		"data", "untrusted cyc/req", "sgx cyc/req", "sgx slowdown", "eleos cyc/req", "eleos slowdown")
	t.Note = "paper: SGX 9x (2MB) to 34x (512MB); Eleos recovers most of it"

	for _, size := range sizes {
		ops := rc.Ops
		hostCyc, _ := psHost.run(size, kv.OpenAddressing, ops, 1, 0)
		sgxCyc, _ := psOCall.run(size, kv.OpenAddressing, ops, 1, 0)
		eleosCyc, _ := psEleos.run(size, kv.OpenAddressing, ops, 1, 0)
		t.AddRow(report.Bytes(size),
			perOp(hostCyc, ops), perOp(sgxCyc, ops), report.Ratio(float64(sgxCyc), float64(hostCyc)),
			perOp(eleosCyc, ops), report.Ratio(float64(eleosCyc), float64(hostCyc)))
	}
	return &Result{ID: "fig1", Title: "Parameter server in-enclave slowdown", Tables: []*report.Table{t}}, nil
}

// tab1: single-cache-line accesses over a buffer far larger than the
// LLC, in EPC vs untrusted memory; the ratio of cycles per access is
// the MEE amplification. Paper: READ 5.6x, WRITE 6.8-8.9x, R+W 7.4-9.5x.
func tab1(rc RunConfig) (*Result, error) {
	const bufSize = 64 << 20
	v := enclaveEnv(0)
	enclBuf := v.encl.Alloc(bufSize)
	hostBuf := v.plat.AllocHost(bufSize)
	var b [8]byte
	// Materialize the enclave pages outside the measurement.
	for off := uint64(0); off < bufSize; off += phys.PageSize {
		v.th.Write(enclBuf+off, b[:])
	}

	measure := func(base uint64, seq bool, mode string) float64 {
		rng := rand.New(rand.NewSource(3))
		v.plat.LLC.Invalidate()
		v.th.T.Reset()
		ops := rc.Ops
		// Sequential sweeps must span the whole buffer so every access
		// misses the LLC regardless of the op count.
		step := uint64(64)
		if seq {
			step = (bufSize / uint64(ops)) &^ 63
			if step < 64 {
				step = 64
			}
		}
		stride := uint64(0)
		for i := 0; i < ops; i++ {
			var off uint64
			if seq {
				off = stride % bufSize
				stride += step
			} else {
				off = uint64(rng.Intn(bufSize/64)) * 64
			}
			switch mode {
			case "r":
				v.th.Read(base+off, b[:])
			case "w":
				v.th.Write(base+off, b[:])
			default:
				// Independent read and write streams (the paper's mixed
				// workload), offset by half the buffer so they do not
				// hit each other's lines.
				v.th.Read(base+off, b[:])
				v.th.Write(base+(off+bufSize/2)%bufSize, b[:])
			}
		}
		return perOp(v.th.T.Cycles(), ops)
	}

	t := report.New("Table 1: relative cost of LLC misses, EPC vs untrusted",
		"operation", "sequential", "random")
	t.Note = "paper: READ 5.6x/5.6x, WRITE 6.8x/8.9x, R+W 7.4x/9.5x"
	for _, m := range []struct{ name, mode string }{
		{"READ", "r"}, {"WRITE", "w"}, {"READ and WRITE", "rw"},
	} {
		seqR := measure(enclBuf, true, m.mode) / measure(hostBuf, true, m.mode)
		rndR := measure(enclBuf, false, m.mode) / measure(hostBuf, false, m.mode)
		t.AddRow(m.name, report.Ratio(seqR, 1), report.Ratio(rndR, 1))
	}
	return &Result{ID: "tab1", Title: "LLC miss cost amplification", Tables: []*report.Table{t}}, nil
}

// fig2a: 64MB server, requests restricted to an LLC-sized hot set;
// growing request sizes pollute more cache per syscall, inflating the
// in-enclave time relative to the untrusted run. Paper: up to 2.2x.
func fig2a(rc RunConfig) (*Result, error) {
	size := uint64(64 << 20)
	// The paper restricts requests to an LLC-sized 8MB hot set. Our LLC
	// model uses strict LRU (hardware uses adaptive pseudo-LRU), under
	// which a full-LLC hot set thrashes no matter what pollutes it; a
	// 6MB hot set — still LLC-scale, and within the enclave's 12-way
	// CAT share — reproduces the mechanism the figure isolates.
	hot := uint64((6 << 20) / 16)
	if rc.Quick {
		size = 32 << 20
	}
	t := report.New("Fig 2a: LLC pollution by syscalls (in-enclave vs untrusted time)",
		"keys/req", "untrusted cyc/req", "enclave cyc/req (in-encl)", "slowdown")
	t.Note = "paper: grows to ~2.2x at 64 keys/request"
	for _, nk := range []int{1, 4, 8, 16, 32, 64} {
		ops := rc.Ops / max(1, nk/8)
		hostCyc, _ := psHost.run(size, kv.OpenAddressing, ops, nk, hot)
		_, inEncl := psOCall.run(size, kv.OpenAddressing, ops, nk, hot)
		t.AddRow(nk, perOp(hostCyc, ops), perOp(inEncl, ops),
			report.Ratio(float64(inEncl), float64(hostCyc)))
	}
	return &Result{ID: "fig2a", Title: "Cache pollution cost", Tables: []*report.Table{t}}, nil
}

// fig2b: 2MB server, open addressing vs chaining. Exits flush the TLB;
// pointer chasing re-walks pages after every syscall, so chaining's
// in-enclave time grows with lookups per request while open addressing
// stays flat. Measured in-enclave, like the paper.
func fig2b(rc RunConfig) (*Result, error) {
	const size = 2 << 20
	t := report.New("Fig 2b: TLB flush cost (in-enclave cycles/request)",
		"keys/req", "open-addressing", "chaining", "chaining/open")
	t.Note = "paper: chaining slowdown grows with items accessed; open addressing insensitive"
	for _, nk := range []int{1, 2, 4, 8, 16, 32} {
		ops := rc.Ops / max(1, nk/4)
		_, open := psOCall.run(size, kv.OpenAddressing, ops, nk, 0)
		_, chain := psOCall.run(size, kv.Chaining, ops, nk, 0)
		t.AddRow(nk, perOp(open, ops), perOp(chain, ops),
			report.Ratio(float64(chain), float64(open)))
	}
	return &Result{ID: "fig2b", Title: "TLB flush cost", Tables: []*report.Table{t}}, nil
}

// fig6a: 2MB server; slowdown over untrusted for OCALL vs exit-less
// RPC, as the per-request batch grows. Paper: RPC 6x better at 1
// update, converging by 64.
func fig6a(rc RunConfig) (*Result, error) {
	const size = 2 << 20
	t := report.New("Fig 6a: exit-less syscalls remove direct exit costs (slowdown vs untrusted)",
		"keys/req", "sgx+ocall", "eleos rpc", "rpc gain")
	t.Note = "paper: RPC ~6x better at small requests, on par at 64-update batches"
	for _, nk := range []int{1, 2, 4, 8, 16, 32, 64} {
		ops := rc.Ops / max(1, nk/8)
		hostCyc, _ := psHost.run(size, kv.OpenAddressing, ops, nk, 0)
		ocallCyc, _ := psOCall.run(size, kv.OpenAddressing, ops, nk, 0)
		rpcCyc, _ := psRPC.run(size, kv.OpenAddressing, ops, nk, 0)
		t.AddRow(nk,
			report.Ratio(float64(ocallCyc), float64(hostCyc)),
			report.Ratio(float64(rpcCyc), float64(hostCyc)),
			report.Ratio(float64(ocallCyc), float64(rpcCyc)))
	}
	return &Result{ID: "fig6a", Title: "RPC direct-cost elimination", Tables: []*report.Table{t}}, nil
}

// fig6b: the fig2a configuration served over RPC, with and without the
// 25%/75% CAT way split. Paper: over 25% in-enclave improvement for
// larger I/O buffers.
func fig6b(rc RunConfig) (*Result, error) {
	size := uint64(64 << 20)
	hot := uint64((6 << 20) / 16) // see fig2a on the hot-set size
	if rc.Quick {
		size = 32 << 20
	}
	t := report.New("Fig 6b: CAT partitioning of RPC workers (in-enclave cycles/request)",
		"keys/req", "rpc no-CAT", "rpc with CAT", "improvement")
	t.Note = "paper: CAT saves up to 25%+ of in-enclave time for larger buffers"
	for _, nk := range []int{1, 4, 8, 16, 32, 64} {
		ops := rc.Ops / max(1, nk/8)
		_, noCAT := psRPC.run(size, kv.OpenAddressing, ops, nk, hot)
		_, withCAT := psRPCCAT.run(size, kv.OpenAddressing, ops, nk, hot)
		t.AddRow(nk, perOp(noCAT, ops), perOp(withCAT, ops),
			report.Ratio(float64(noCAT), float64(withCAT)))
	}
	return &Result{ID: "fig6b", Title: "CAT partitioning benefit", Tables: []*report.Table{t}}, nil
}

// fig6c: the fig2b chaining configuration, OCALL vs RPC: with no exits
// the TLB survives across requests. Paper: up to 5.5x faster in-enclave.
func fig6c(rc RunConfig) (*Result, error) {
	const size = 2 << 20
	t := report.New("Fig 6c: exit-less syscalls eliminate TLB flushes (in-enclave cycles/request)",
		"keys/req", "ocall", "rpc", "rpc gain")
	t.Note = "paper: up to 5.5x faster with RPC on the chaining table"
	for _, nk := range []int{1, 2, 4, 8, 16, 32} {
		ops := rc.Ops / max(1, nk/4)
		_, ocall := psOCall.run(size, kv.Chaining, ops, nk, 0)
		_, rpc := psRPC.run(size, kv.Chaining, ops, nk, 0)
		t.AddRow(nk, perOp(ocall, ops), perOp(rpc, ops),
			report.Ratio(float64(ocall), float64(rpc)))
	}
	return &Result{ID: "fig6c", Title: "TLB flush elimination", Tables: []*report.Table{t}}, nil
}
