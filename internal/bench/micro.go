package bench

import (
	"math/rand"

	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/loadgen"
	"eleos/internal/phys"
	"eleos/internal/pserver"
	"eleos/internal/report"
	"eleos/internal/sgx"
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

// runPServer drives ops requests of nkeys random updates against a
// freshly built server whose socket dispatches in mode, and returns
// (endToEndCycles, inEnclaveCycles).
func runPServer(v *env, mode exitio.Mode, cfg pserver.Config, ops, nkeys int, hot uint64, warm int) (uint64, uint64) {
	eng, err := exitio.NewEngine(mode, v.pool)
	if err != nil {
		panic(err)
	}
	cfg.Heap = v.heap
	cfg.Engine = eng
	cfg.Encrypted = true
	srv, err := pserver.New(v.plat, v.th, cfg)
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	gen := loadgen.NewKeyGen(1, srv.Entries())
	if hot > 0 {
		gen.HotSet(hot)
	}
	keys := make([]uint64, nkeys)
	for i := 0; i < warm; i++ {
		if err := srv.ServeRequest(v.th, gen.Batch(keys)); err != nil {
			panic(err)
		}
	}
	resetCounters(v.plat, v.th, v.heap)
	for i := 0; i < ops; i++ {
		if err := srv.ServeRequest(v.th, gen.Batch(keys)); err != nil {
			panic(err)
		}
	}
	return v.th.T.Cycles(), v.th.SyncEnclaveCycles()
}

// fig1: three data sizes (LLC-sized, EPC-sized, beyond-EPC), untrusted
// vs vanilla SGX vs Eleos (RPC + SUVM + CAT). 100k random single-value
// updates. Paper: 9x/12x/34x slowdown for SGX; Eleos recovers most.
func fig1(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	sizes := []uint64{2 << 20, 64 << 20, 512 << 20}
	if rc.Quick {
		sizes = []uint64{2 << 20, 32 << 20, 192 << 20}
	}
	t := report.New("Fig 1: parameter server slowdown over untrusted execution",
		"data", "untrusted cyc/req", "sgx cyc/req", "sgx slowdown", "eleos cyc/req", "eleos slowdown")
	t.Note = "paper: SGX 9x (2MB) to 34x (512MB); Eleos recovers most of it"

	for _, size := range sizes {
		ops := rc.Ops
		warm := ops / 10

		hv := hostEnv()
		hostCyc, _ := runPServer(hv, exitio.ModeDirect, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceHost,
		}, ops, 1, 0, warm)

		sv := enclaveEnv(0)
		sgxCyc, _ := runPServer(sv, exitio.ModeOCall, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceEnclave,
		}, ops, 1, 0, warm)

		ev := enclaveEnv(60 << 20).withPool(2)
		ev.plat.LLC.EnablePartitioning(4)
		eleosCyc, _ := runPServer(ev, exitio.ModeRPCSync, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceSUVM,
		}, ops, 1, 0, warm)
		ev.close()

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
	rc = rc.Normalize()
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
	rc = rc.Normalize()
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
		ops := rc.Ops / maxInt(1, nk/8)
		hv := hostEnv()
		hostCyc, _ := runPServer(hv, exitio.ModeDirect, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceHost,
		}, ops, nk, hot, ops/10)

		sv := enclaveEnv(0)
		_, inEncl := runPServer(sv, exitio.ModeOCall, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceEnclave,
		}, ops, nk, hot, ops/10)

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
	rc = rc.Normalize()
	const size = 2 << 20
	t := report.New("Fig 2b: TLB flush cost (in-enclave cycles/request)",
		"keys/req", "open-addressing", "chaining", "chaining/open")
	t.Note = "paper: chaining slowdown grows with items accessed; open addressing insensitive"
	for _, nk := range []int{1, 2, 4, 8, 16, 32} {
		ops := rc.Ops / maxInt(1, nk/4)
		var inEncl [2]uint64
		for i, layout := range []kv.Layout{kv.OpenAddressing, kv.Chaining} {
			sv := enclaveEnv(0)
			_, ie := runPServer(sv, exitio.ModeOCall, pserver.Config{
				DataBytes: size, Layout: layout,
				Placement: pserver.PlaceEnclave,
			}, ops, nk, 0, ops/10)
			inEncl[i] = ie
		}
		t.AddRow(nk, perOp(inEncl[0], ops), perOp(inEncl[1], ops),
			report.Ratio(float64(inEncl[1]), float64(inEncl[0])))
	}
	return &Result{ID: "fig2b", Title: "TLB flush cost", Tables: []*report.Table{t}}, nil
}

// fig6a: 2MB server; slowdown over untrusted for OCALL vs exit-less
// RPC, as the per-request batch grows. Paper: RPC 6x better at 1
// update, converging by 64.
func fig6a(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	const size = 2 << 20
	t := report.New("Fig 6a: exit-less syscalls remove direct exit costs (slowdown vs untrusted)",
		"keys/req", "sgx+ocall", "eleos rpc", "rpc gain")
	t.Note = "paper: RPC ~6x better at small requests, on par at 64-update batches"
	for _, nk := range []int{1, 2, 4, 8, 16, 32, 64} {
		ops := rc.Ops / maxInt(1, nk/8)
		hv := hostEnv()
		hostCyc, _ := runPServer(hv, exitio.ModeDirect, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceHost,
		}, ops, nk, 0, ops/10)

		ov := enclaveEnv(0)
		ocallCyc, _ := runPServer(ov, exitio.ModeOCall, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceEnclave,
		}, ops, nk, 0, ops/10)

		rv := enclaveEnv(0).withPool(2)
		rpcCyc, _ := runPServer(rv, exitio.ModeRPCSync, pserver.Config{
			DataBytes: size, Layout: kv.OpenAddressing,
			Placement: pserver.PlaceEnclave,
		}, ops, nk, 0, ops/10)
		rv.close()

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
	rc = rc.Normalize()
	size := uint64(64 << 20)
	hot := uint64((6 << 20) / 16) // see fig2a on the hot-set size
	if rc.Quick {
		size = 32 << 20
	}
	t := report.New("Fig 6b: CAT partitioning of RPC workers (in-enclave cycles/request)",
		"keys/req", "rpc no-CAT", "rpc with CAT", "improvement")
	t.Note = "paper: CAT saves up to 25%+ of in-enclave time for larger buffers"
	for _, nk := range []int{1, 4, 8, 16, 32, 64} {
		ops := rc.Ops / maxInt(1, nk/8)
		var inEncl [2]uint64
		for i, cat := range []bool{false, true} {
			rv := enclaveEnv(0).withPool(2)
			if cat {
				rv.plat.LLC.EnablePartitioning(4)
			}
			_, ie := runPServer(rv, exitio.ModeRPCSync, pserver.Config{
				DataBytes: size, Layout: kv.OpenAddressing,
				Placement: pserver.PlaceEnclave,
			}, ops, nk, hot, ops/10)
			rv.close()
			inEncl[i] = ie
		}
		t.AddRow(nk, perOp(inEncl[0], ops), perOp(inEncl[1], ops),
			report.Ratio(float64(inEncl[0]), float64(inEncl[1])))
	}
	return &Result{ID: "fig6b", Title: "CAT partitioning benefit", Tables: []*report.Table{t}}, nil
}

// fig6c: the fig2b chaining configuration, OCALL vs RPC: with no exits
// the TLB survives across requests. Paper: up to 5.5x faster in-enclave.
func fig6c(rc RunConfig) (*Result, error) {
	rc = rc.Normalize()
	const size = 2 << 20
	t := report.New("Fig 6c: exit-less syscalls eliminate TLB flushes (in-enclave cycles/request)",
		"keys/req", "ocall", "rpc", "rpc gain")
	t.Note = "paper: up to 5.5x faster with RPC on the chaining table"
	for _, nk := range []int{1, 2, 4, 8, 16, 32} {
		ops := rc.Ops / maxInt(1, nk/4)
		var inEncl [2]uint64
		for i, mode := range []exitio.Mode{exitio.ModeOCall, exitio.ModeRPCSync} {
			v := enclaveEnv(0)
			if mode == exitio.ModeRPCSync {
				v.withPool(2)
			}
			_, ie := runPServer(v, mode, pserver.Config{
				DataBytes: size, Layout: kv.Chaining,
				Placement: pserver.PlaceEnclave,
			}, ops, nk, 0, ops/10)
			v.close()
			inEncl[i] = ie
		}
		t.AddRow(nk, perOp(inEncl[0], ops), perOp(inEncl[1], ops),
			report.Ratio(float64(inEncl[0]), float64(inEncl[1])))
	}
	return &Result{ID: "fig6c", Title: "TLB flush elimination", Tables: []*report.Table{t}}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var _ = sgx.HeapBase // reserved for future experiments touching raw addresses
