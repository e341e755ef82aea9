package sgx

import (
	"fmt"
	"sync/atomic"

	"eleos/internal/cache"
	"eleos/internal/cycles"
	"eleos/internal/phys"
	"eleos/internal/tlb"
)

// Thread is one simulated hardware thread. Enclave threads (created via
// Enclave.NewThread) can enter the enclave and access both private and
// host memory; host threads (Platform.NewHostThread) run untrusted code
// only. A Thread is used by one goroutine at a time; an RPC worker's
// thread by whoever holds the worker's run lock (the worker loop, or a
// waiting submitter running its own call there).
type Thread struct {
	T    *cycles.Thread
	TLB  *tlb.TLB
	plat *Platform
	encl *Enclave
	cos  cache.CoS

	inEnclave  atomic.Bool
	pendingIPI atomic.Int64

	// In-enclave time accounting (the measurement thread of §6's
	// methodology): cycles accumulated while executing inside the
	// enclave, excluding exit/entry instruction costs and everything
	// that happens outside.
	encCycles  uint64
	enterStamp uint64

	// scratch avoids per-access allocations in the data path.
	scratch [8]byte

	// hostCtx is the thread's untrusted execution context, allocated
	// once here so HostContext and OCall stay allocation-free on the
	// per-op path (HostCtx is immutable: it only names the thread).
	hostCtx HostCtx
}

func newThread(p *Platform, e *Enclave, cos cache.CoS) *Thread {
	id := int(p.nextThread.Add(1))
	th := &Thread{
		T:    cycles.NewThread(id, p.Model),
		TLB:  tlb.New(p.Model, tlb.Config{}),
		plat: p,
		encl: e,
		cos:  cos,
	}
	th.hostCtx.th = th
	return th
}

// NewThread creates a hardware thread bound to the enclave.
func (e *Enclave) NewThread() *Thread {
	th := newThread(e.plat, e, cache.CoSEnclave)
	e.threadMu.Lock()
	e.threads = append(e.threads, th)
	e.threadMu.Unlock()
	return th
}

// Enclave returns the enclave the thread belongs to, or nil for host
// threads.
func (th *Thread) Enclave() *Enclave { return th.encl }

// Platform returns the machine the thread runs on.
func (th *Thread) Platform() *Platform { return th.plat }

// InEnclave reports whether the thread is currently executing inside
// its enclave.
func (th *Thread) InEnclave() bool { return th.inEnclave.Load() }

// Enter transitions the thread into the enclave (EENTER).
func (th *Thread) Enter() {
	if th.encl == nil {
		panic("sgx: host thread cannot enter an enclave")
	}
	if th.inEnclave.Load() {
		panic("sgx: nested enclave entry")
	}
	th.T.Charge(th.plat.Model.EEnter)
	th.inEnclave.Store(true)
	th.enterStamp = th.T.Cycles()
}

// SyncEnclaveCycles folds the current in-enclave stint into the
// accumulator without exiting, so callers can sample mid-run.
func (th *Thread) SyncEnclaveCycles() uint64 {
	if th.inEnclave.Load() {
		now := th.T.Cycles()
		th.encCycles += now - th.enterStamp
		th.enterStamp = now
	}
	return th.encCycles
}

// ResetEnclaveCycles zeroes the in-enclave accumulator (warm-up
// boundary) and restarts the current stint if inside.
func (th *Thread) ResetEnclaveCycles() {
	th.encCycles = 0
	th.enterStamp = th.T.Cycles()
}

// ChargeOutside adds n cycles to the thread without attributing them to
// in-enclave execution: the thread is stalled waiting on work done
// elsewhere (an RPC worker executing its system call). The §6
// measurement methodology excludes system-call work from in-enclave
// time, for OCALLs by construction; this keeps the exit-less path
// comparable.
func (th *Thread) ChargeOutside(n uint64) {
	th.SyncEnclaveCycles()
	th.T.Charge(n)
	if th.inEnclave.Load() {
		th.enterStamp = th.T.Cycles()
	}
}

// ChargeResidual accounts an overlapped host-side operation: the
// operation consumed work cycles and was submitted at submitStamp on
// this thread's clock. Cycles the thread has burned since then (its own
// overlapping compute) run concurrently with the operation for free;
// only the remainder — if any — is still outstanding and is charged as
// stall time outside the enclave, like ChargeOutside. Returns the
// residual charged. Call it from the thread that recorded submitStamp;
// stamps from other clocks yield a zero residual at worst.
func (th *Thread) ChargeResidual(submitStamp, work uint64) uint64 {
	var elapsed uint64
	if now := th.T.Cycles(); now > submitStamp {
		elapsed = now - submitStamp
	}
	if elapsed >= work {
		return 0
	}
	residual := work - elapsed
	th.ChargeOutside(residual)
	return residual
}

// Exit transitions the thread out of the enclave (EEXIT). Architecture
// requires the enclave's TLB translations to be flushed on exit; the
// micro-architectural state-restore penalty is charged on the way out so
// each round trip pays it exactly once.
func (th *Thread) Exit() {
	if !th.inEnclave.Load() {
		panic("sgx: exit while not in enclave")
	}
	th.encCycles += th.T.Cycles() - th.enterStamp
	th.T.Charge(th.plat.Model.EExit)
	th.T.Charge(th.plat.Model.ExitIndirect)
	th.TLB.FlushEPC()
	th.inEnclave.Store(false)
	th.encl.stats.Exits.Add(1)
}

// OCall performs the SDK OCALL dance: exit the enclave, run fn in the
// untrusted context of the owner process, and re-enter. fn runs on the
// same core and therefore the same cache class of service. This is the
// mechanism Eleos's exit-less RPC replaces.
//
//eleos:hotpath budget=0
func (th *Thread) OCall(fn func(*HostCtx)) {
	th.encl.stats.OCalls.Add(1)
	th.Exit()
	th.T.Charge(th.plat.Model.OCallOverhead)
	fn(&th.hostCtx)
	th.Enter()
}

// HostCtx is the untrusted execution context handed to OCALL targets,
// RPC workers and plain host code. It exposes host-memory access and
// system-call invocation with their modelled costs.
type HostCtx struct {
	th *Thread
}

// HostContext returns an untrusted execution context for a host thread
// (or for an enclave thread that is currently outside — used by
// runtimes, not applications).
//
//eleos:hotpath budget=0
func (th *Thread) HostContext() *HostCtx { return &th.hostCtx }

// Thread returns the hardware thread backing this context.
func (c *HostCtx) Thread() *Thread { return c.th }

// Syscall charges the base cost of one untrusted system call and runs
// its kernel-side work.
func (c *HostCtx) Syscall(work func(*HostCtx)) {
	c.th.T.Charge(c.th.plat.Model.Syscall)
	if work != nil {
		work(c)
	}
}

// Read copies host memory at addr into buf, charging TLB and LLC costs.
func (c *HostCtx) Read(addr uint64, buf []byte) { c.th.hostAccess(addr, buf, false) }

// Write copies data into host memory at addr, charging TLB and LLC costs.
func (c *HostCtx) Write(addr uint64, data []byte) { c.th.hostAccess(addr, data, true) }

// Touch charges the cost of streaming over [addr, addr+n) in host memory
// without moving real bytes — used to model kernel-internal buffer
// traffic (e.g. NIC ring to socket buffer copies) whose content is
// irrelevant but whose cache footprint is the pollution the paper
// measures. An empty range costs nothing.
func (c *HostCtx) Touch(addr uint64, n int, write bool) {
	if n <= 0 {
		return
	}
	vp := phys.PageNum(addr)
	end := phys.PageNum(addr + uint64(n-1))
	for ; vp <= end; vp++ {
		c.th.TLB.Access(c.th.T, vp, false)
	}
	c.th.plat.LLC.AccessRange(c.th.T, c.th.cos, addr, n, write)
}

// Read performs a data read at vaddr: enclave-private if the address is
// at or above HeapBase (permitted only for enclave threads currently
// inside), untrusted host memory otherwise.
func (th *Thread) Read(vaddr uint64, buf []byte) {
	if vaddr >= HeapBase {
		th.enclaveAccess(vaddr, buf, false)
		return
	}
	th.hostAccess(vaddr, buf, false)
}

// Write performs a data write at vaddr, with the same address-space
// dispatch as Read.
func (th *Thread) Write(vaddr uint64, data []byte) {
	if vaddr >= HeapBase {
		th.enclaveAccess(vaddr, data, true)
		return
	}
	th.hostAccess(vaddr, data, true)
}

// ReadU64 reads a little-endian uint64 — the parameter-server value type.
func (th *Thread) ReadU64(vaddr uint64) uint64 {
	th.Read(vaddr, th.scratch[:])
	return leU64(th.scratch[:])
}

// WriteU64 writes a little-endian uint64.
func (th *Thread) WriteU64(vaddr uint64, v uint64) {
	putLeU64(th.scratch[:], v)
	th.Write(vaddr, th.scratch[:])
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

// WriteStream writes data at vaddr with streaming-store accounting: the
// destination lines are installed in the LLC at hit-level cost instead
// of paying write-allocate misses. SUVM uses it for page-in fills whose
// stores are fully overlapped with the AES-GCM decryption producing
// them. Residency, TLB and fault semantics are identical to Write.
func (th *Thread) WriteStream(vaddr uint64, data []byte) {
	if vaddr < HeapBase {
		// Host-side streaming store.
		if len(data) == 0 {
			return
		}
		vp := phys.PageNum(vaddr)
		end := phys.PageNum(vaddr + uint64(len(data)-1))
		for ; vp <= end; vp++ {
			th.TLB.Access(th.T, vp, false)
		}
		th.plat.LLC.InstallRange(th.T, th.cos, vaddr, len(data))
		th.plat.Host.WriteAt(vaddr, data)
		return
	}
	e := th.encl
	if e == nil || !th.inEnclave.Load() {
		panic("sgx: WriteStream to enclave memory from outside")
	}
	for len(data) > 0 {
		th.deliverPendingIPIs()
		idx := e.pageIndex(vaddr)
		pageOff := vaddr & (phys.PageSize - 1)
		n := phys.PageSize - int(pageOff)
		if n > len(data) {
			n = len(data)
		}
		th.streamResident(e, phys.PageNum(vaddr), idx, pageOff, data[:n])
		vaddr += uint64(n)
		data = data[n:]
	}
}

func (th *Thread) streamResident(e *Enclave, vpage, idx, pageOff uint64, data []byte) {
	for {
		th.TLB.Access(th.T, vpage, true)
		e.pagingMu.RLock()
		p := &e.pages[idx]
		if p.state == pageResident {
			setFlag(&p.accessed)
			setFlag(&p.dirty)
			frame := p.frame
			copy(e.plat.Driver.frameData(frame)[pageOff:], data)
			e.pagingMu.RUnlock()
			e.plat.LLC.InstallRange(th.T, th.cos, phys.FramePhys(int(frame))+pageOff, len(data))
			return
		}
		e.pagingMu.RUnlock()
		th.hwFault(e, idx, true)
	}
}

func (th *Thread) hostAccess(addr uint64, buf []byte, write bool) {
	if len(buf) == 0 {
		return
	}
	vp := phys.PageNum(addr)
	end := phys.PageNum(addr + uint64(len(buf)-1))
	for ; vp <= end; vp++ {
		th.TLB.Access(th.T, vp, false)
	}
	th.plat.LLC.AccessRange(th.T, th.cos, addr, len(buf), write)
	if write {
		th.plat.Host.WriteAt(addr, buf)
	} else {
		th.plat.Host.ReadAt(addr, buf)
	}
}

// enclaveAccess performs a data access to enclave-private memory,
// page by page: IPI delivery, TLB translation, residency check (with the
// hardware fault path on misses), LLC charging against the frame's
// physical address, and the real byte copy.
func (th *Thread) enclaveAccess(vaddr uint64, buf []byte, write bool) {
	e := th.encl
	if e == nil {
		panic(fmt.Sprintf("sgx: host thread accessing enclave address %#x", vaddr))
	}
	if !th.inEnclave.Load() {
		panic(fmt.Sprintf("sgx: enclave memory access at %#x while outside the enclave", vaddr))
	}
	for len(buf) > 0 {
		th.deliverPendingIPIs()
		idx := e.pageIndex(vaddr)
		pageOff := vaddr & (phys.PageSize - 1)
		n := phys.PageSize - int(pageOff)
		if n > len(buf) {
			n = len(buf)
		}
		th.copyResident(e, phys.PageNum(vaddr), idx, pageOff, buf[:n], write)
		vaddr += uint64(n)
		buf = buf[n:]
	}
}

// copyResident copies within one page, faulting it in if needed. The TLB
// translation happens inside the retry loop: a fault's AEX flushes the
// TLB, so the replayed access after resume walks the page table again —
// exactly the hardware behaviour whose cost Fig 2b measures.
func (th *Thread) copyResident(e *Enclave, vpage, idx, pageOff uint64, buf []byte, write bool) {
	for {
		th.TLB.Access(th.T, vpage, true)
		e.pagingMu.RLock()
		if idx >= uint64(len(e.pages)) {
			e.pagingMu.RUnlock()
			panic(fmt.Sprintf("sgx: enclave %d access beyond heap (page %d of %d)", e.id, idx, len(e.pages)))
		}
		p := &e.pages[idx]
		if p.state == pageResident {
			setFlag(&p.accessed)
			if write {
				setFlag(&p.dirty)
			}
			frame := p.frame
			data := e.plat.Driver.frameData(frame)
			if write {
				copy(data[pageOff:], buf)
			} else {
				copy(buf, data[pageOff:])
			}
			e.pagingMu.RUnlock()
			e.plat.LLC.AccessRange(th.T, th.cos, phys.FramePhys(int(frame))+pageOff, len(buf), write)
			return
		}
		e.pagingMu.RUnlock()
		th.hwFault(e, idx, write)
	}
}

// ensureResident materializes a page without copying data (used by Pin).
func (th *Thread) ensureResident(e *Enclave, idx uint64, write bool) {
	for {
		e.pagingMu.RLock()
		resident := e.pages[idx].state == pageResident
		e.pagingMu.RUnlock()
		if resident {
			return
		}
		th.hwFault(e, idx, write)
	}
}

// hwFault pays the full architectural price of an EPC page fault: an
// asynchronous exit (with TLB flush), the driver's direct handling cost
// (plus eviction work if the free pool is dry), and re-entry.
func (th *Thread) hwFault(e *Enclave, idx uint64, write bool) {
	// AEX: exit the enclave involuntarily.
	th.encCycles += th.T.Cycles() - th.enterStamp
	th.T.Charge(th.plat.Model.EExit)
	th.T.Charge(th.plat.Model.ExitIndirect)
	th.TLB.FlushEPC()
	th.inEnclave.Store(false)
	e.stats.Exits.Add(1)

	th.plat.Driver.fault(th, e, idx, write)

	// ERESUME.
	th.T.Charge(th.plat.Model.EEnter)
	th.inEnclave.Store(true)
	th.enterStamp = th.T.Cycles()
}

// deliverPendingIPIs consumes queued shootdown interrupts: each one
// forces an AEX + TLB flush on this core, the indirect cost Table 2 of
// the paper attributes to multi-threaded SGX paging.
func (th *Thread) deliverPendingIPIs() {
	if th.pendingIPI.Load() == 0 {
		return // the common case: a load, not a locked exchange
	}
	for n := th.pendingIPI.Swap(0); n > 0; n-- {
		th.T.Charge(th.plat.Model.AEX)
		th.TLB.FlushEPC()
	}
}
