package rpc

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"eleos/internal/cache"
	"eleos/internal/sgx"
)

// ErrStopped is returned by Call, CallAsync and CallBatch when the pool
// is not running: never started, mid-Stop, or already stopped. Callers
// racing Stop get a clean error instead of hanging on a request no
// worker will ever execute.
var ErrStopped = errors.New("rpc: pool is not running")

// request is one delegated untrusted call. The enclave-side caller spins
// on done; the worker publishes the virtual cycles the call consumed so
// the caller can be charged the part of that latency not hidden behind
// its own compute (all of it when it waits at once, as Call does).
// Requests are recycled through a sync.Pool; ownership returns to the
// submitter once done is set.
type request struct {
	fn          func(*sgx.HostCtx)
	submitStamp uint64 // caller's cycle clock just after the enqueue charge
	workCycles  uint64
	done        atomic.Uint32
	// w and ticket name the ring slot the request was published at:
	// the worker whose ring holds it and its ring position. Written and
	// read by the submitter only, for help.
	w      *worker
	ticket uint64
}

// Stats counts pool activity.
type Stats struct {
	// Calls is the total number of requests executed through the pool,
	// single (Call, CallAsync) or batched; single calls are Calls -
	// BatchedCalls.
	Calls uint64
	// Batches counts CallBatch invocations; BatchedCalls counts the
	// requests those batches carried.
	Batches      uint64
	BatchedCalls uint64
	WorkerOps    uint64
	// Helped counts requests a waiting submitter ran itself on the
	// worker's thread (WorkerOps includes them).
	Helped uint64
	// Steals is always 0: a request runs only on the worker whose ring
	// it was published to. It stays for the benchmark harness
	// (benchmark/layers.go), which reports it.
	Steals uint64
	// Sleeps and Wakes trace the backoff ladder: how often a worker
	// reached the sleep rung, and how often an enqueue had to wake one.
	Sleeps uint64
	Wakes  uint64
	// QueueDepth is the instantaneous number of published-but-undequeued
	// requests; PeakQueueDepth is its high-water mark.
	QueueDepth     int64
	PeakQueueDepth int64
	// WaitCycles accumulates the residual latency charged whenever a
	// caller observes a completion (Call, Future.Wait, CallBatch
	// collection): the part of the workers' time the callers could not
	// hide behind their own compute, which for Call is all of it.
	WaitCycles uint64
	// SettledWorkCycles accumulates the worker execution cycles of every
	// request whose completion the submitter has observed. Unlike
	// WorkerOps it advances only on the submitting threads, so in a
	// single-driver run it is a deterministic measure of offered
	// service demand — the signal the self-tuning controller divides by
	// elapsed virtual time to estimate required parallelism.
	SettledWorkCycles uint64
	// Workers is the live worker count at snapshot time; Grows and
	// Shrinks count Resize operations in each direction.
	Workers int
	Grows   uint64
	Shrinks uint64
}

// Pool lifecycle states.
const (
	poolIdle int32 = iota
	poolRunning
	poolStopping
)

// Backoff ladder rungs, in consecutive empty polls: pure busy spinning,
// then yielding the host CPU between polls, then sleeping until an
// enqueue wakes the worker.
const (
	spinPolls  = 64
	yieldPolls = 256
)

// worker is one untrusted poller: its thread, its own ring shard, the
// wake channel the sleep rung of the backoff ladder blocks on, and the
// retire channel Stop or a shrink closes to ask the worker to drain its
// own ring and exit.
type worker struct {
	th *sgx.Thread
	// run is held by whichever goroutine is executing on th: the
	// worker's own loop, or a waiting submitter running its call (see
	// Pool.help). Calls run under it and reach fsim.FS.mu,
	// sgx.Driver.mu and the host arena.
	//
	//eleos:lockorder 95
	run      sync.Mutex
	ring     *ring
	wake     chan struct{}
	retire   chan struct{} // made afresh by each launch
	retired  chan struct{} // closed by the worker after its drain
	sleeping atomic.Bool
}

// Pool is the untrusted RPC runtime: worker threads each polling their
// own job ring. Workers run with the CoSRPC cache class of service, so
// enabling LLC partitioning confines their pollution (§3.1, Fig 6b).
//
// The worker set is dynamic: Resize grows and shrinks it while the pool
// is running, without a Stop/Start cycle. Submitters read the published
// set through an atomic pointer; the inflight counter fences Stop and a
// shrink against submissions that hold the previous snapshot, so an
// accepted request always lands on a ring its worker will drain.
type Pool struct {
	plat     *sgx.Platform
	ws       atomic.Pointer[[]*worker] // published worker set
	perShard int

	// resizeMu serializes Start, Stop and Resize against each other.
	//
	//eleos:lockorder 90
	resizeMu sync.Mutex

	state    atomic.Int32
	inflight atomic.Int64 // submitters between their state check and enqueue

	reqPool sync.Pool

	calls        atomic.Uint64
	batches      atomic.Uint64
	batchedCalls atomic.Uint64
	workerOps    atomic.Uint64
	helped       atomic.Uint64
	sleeps       atomic.Uint64
	wakes        atomic.Uint64
	waitCycles   atomic.Uint64
	settledWork  atomic.Uint64
	grows        atomic.Uint64
	shrinks      atomic.Uint64
	depth        atomic.Int64
	peakDepth    atomic.Int64
}

// NewPool creates a pool with the given number of worker threads, each
// owning a ring shard. ringCapacity is the total queue capacity; it is
// split across the shards (each rounded up to a power of two, minimum
// 16 slots).
func NewPool(p *sgx.Platform, workers, ringCapacity int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	perShard := 16
	for perShard < ringCapacity/workers {
		perShard *= 2
	}
	pool := &Pool{plat: p, perShard: perShard}
	set := make([]*worker, 0, workers)
	for i := 0; i < workers; i++ {
		set = append(set, pool.newWorker())
	}
	pool.ws.Store(&set)
	return pool
}

func (p *Pool) newWorker() *worker {
	return &worker{
		th:   p.plat.NewHostThread(cache.CoSRPC),
		ring: newRing(p.perShard),
		wake: make(chan struct{}, 1),
	}
}

// workers returns the published worker set.
func (p *Pool) workers() []*worker { return *p.ws.Load() }

// Start launches the worker goroutines. Idempotent while running; a
// stopped pool can be started again.
func (p *Pool) Start() {
	p.resizeMu.Lock()
	defer p.resizeMu.Unlock()
	if !p.state.CompareAndSwap(poolIdle, poolRunning) {
		return
	}
	for _, w := range p.workers() {
		p.launch(w)
	}
}

// Stop shuts the workers down deterministically: new submissions are
// refused with ErrStopped, in-flight publishes are allowed to land, and
// each worker drains its own ring before exiting — so a request that
// was accepted is always executed and its waiter always completes.
func (p *Pool) Stop() {
	p.resizeMu.Lock()
	defer p.resizeMu.Unlock()
	if !p.state.CompareAndSwap(poolRunning, poolStopping) {
		return
	}
	p.retire(p.workers())
	p.state.Store(poolIdle)
}

// Resize grows or shrinks the live worker set to n without stopping the
// pool. Growth publishes fresh workers (new host threads, new ring
// shards) and starts their goroutines. Shrink unpublishes the trailing
// workers so no new submission can route to them and then retires them
// exactly as Stop retires every worker. Returns ErrStopped if the pool
// is not running.
func (p *Pool) Resize(n int) error {
	if n < 1 {
		n = 1
	}
	p.resizeMu.Lock()
	defer p.resizeMu.Unlock()
	if p.state.Load() != poolRunning {
		return ErrStopped
	}
	cur := p.workers()
	switch {
	case n > len(cur):
		next := make([]*worker, len(cur), n)
		copy(next, cur)
		for i := len(cur); i < n; i++ {
			w := p.newWorker()
			next = append(next, w)
			p.launch(w)
		}
		p.ws.Store(&next)
		p.grows.Add(1)
	case n < len(cur):
		next := make([]*worker, n)
		copy(next, cur[:n])
		p.ws.Store(&next)
		p.retire(cur[n:])
		p.shrinks.Add(1)
	}
	return nil
}

// launch starts w's goroutine with fresh retire channels.
func (p *Pool) launch(w *worker) {
	w.retire = make(chan struct{})
	w.retired = make(chan struct{})
	go p.workerLoop(w)
}

// retire asks each of ws to drain its own ring and exit, and waits
// until all have. It first waits out the inflight submitters: any of
// them may hold a worker-set snapshot that still routes to ws, and once
// they quiesce every later submission is refused or routes elsewhere,
// so draining to empty leaves no accepted request behind.
func (p *Pool) retire(ws []*worker) {
	for p.inflight.Load() != 0 {
		runtime.Gosched()
	}
	for _, w := range ws {
		close(w.retire)
	}
	for _, w := range ws {
		<-w.retired
	}
}

// WorkerCount returns the number of live workers.
func (p *Pool) WorkerCount() int { return len(p.workers()) }

// Workers returns the live untrusted worker threads (the harness
// aggregates their cycle counters into end-to-end numbers). Workers
// retired by Resize are not included.
func (p *Pool) Workers() []*sgx.Thread {
	ws := p.workers()
	ths := make([]*sgx.Thread, len(ws))
	for i, w := range ws {
		ths[i] = w.th
	}
	return ths
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Calls:             p.calls.Load(),
		Batches:           p.batches.Load(),
		BatchedCalls:      p.batchedCalls.Load(),
		WorkerOps:         p.workerOps.Load(),
		Helped:            p.helped.Load(),
		Sleeps:            p.sleeps.Load(),
		Wakes:             p.wakes.Load(),
		QueueDepth:        p.depth.Load(),
		PeakQueueDepth:    p.peakDepth.Load(),
		WaitCycles:        p.waitCycles.Load(),
		SettledWorkCycles: p.settledWork.Load(),
		Workers:           p.WorkerCount(),
		Grows:             p.grows.Load(),
		Shrinks:           p.shrinks.Load(),
	}
}

//eleos:hotpath budget=0
func (p *Pool) getReq(fn func(*sgx.HostCtx), stamp uint64) *request {
	req, _ := p.reqPool.Get().(*request)
	if req == nil {
		//eleos:allow hotpath -- pool miss: one-time warm-up, amortized to zero in steady state
		req = new(request)
	}
	req.fn = fn
	req.submitStamp = stamp
	req.workCycles = 0
	req.done.Store(0)
	return req
}

//eleos:hotpath budget=0
func (p *Pool) putReq(req *request) {
	req.fn = nil
	p.reqPool.Put(req)
}

// submit publishes reqs: request i goes to the ring of worker
// (caller's shard + i) mod workers, and its owner is woken if it
// sleeps. It returns the worker count it saw. The whole submission
// publishes in one inflight window, which also holds the worker-set
// snapshot, so a concurrent Stop or shrink waits for it before
// retiring the workers it routed to. Wake-on-enqueue is lost-wakeup
// free: a request is in its ring before wakeIfAsleep reads the owner's
// sleeping flag, and a worker raises that flag before its sleep rung
// re-checks its own ring.
//
//eleos:hotpath budget=0
func (p *Pool) submit(caller *sgx.Thread, reqs []*request) (int, error) {
	p.inflight.Add(1)
	if p.state.Load() != poolRunning {
		p.inflight.Add(-1)
		return 0, ErrStopped
	}
	ws := p.workers()
	s := shardOf(caller, len(ws))
	for _, req := range reqs {
		w := ws[s]
		p.bumpPeak(p.depth.Add(1))
		req.w = w
		req.ticket = w.ring.enqueue(req)
		wakeIfAsleep(w)
		if s++; s == len(ws) {
			s = 0
		}
	}
	p.inflight.Add(-1)
	return len(ws), nil
}

// shardOf picks the first shard of a caller's submissions: affinity by
// thread ID, so a caller's single calls stay on one ring and its cache
// lines.
//
//eleos:hotpath budget=0
func shardOf(caller *sgx.Thread, n int) int {
	return int(uint64(caller.T.ID()) % uint64(n))
}

//eleos:hotpath budget=0
func (p *Pool) bumpPeak(d int64) {
	for {
		cur := p.peakDepth.Load()
		if d <= cur || p.peakDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// wakeIfAsleep wakes w if it sleeps: its ring just received a request.
//
//eleos:hotpath budget=0
func wakeIfAsleep(w *worker) {
	if !w.sleeping.Load() {
		return
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// workerLoop is the untrusted worker body: it runs on a host thread,
// polls its own ring, and executes requests in a host context. It must
// never touch EPC contents or call enclave code.
//
//eleos:untrusted
//eleos:hotpath budget=0
func (p *Pool) workerLoop(w *worker) {
	idle := 0
	for {
		select {
		case <-w.retire:
			w.run.Lock()
			p.runThrough(w, math.MaxUint64)
			w.run.Unlock()
			close(w.retired)
			return
		default:
		}
		// A failed TryLock means a waiting submitter is running calls
		// on this worker's thread: an idle poll.
		if w.run.TryLock() {
			ran := p.runThrough(w, math.MaxUint64)
			w.run.Unlock()
			if ran > 0 {
				idle = 0
				continue
			}
		}
		idle++
		switch {
		case idle <= spinPolls:
			// Busy rung: immediate re-poll.
		case idle <= spinPolls+yieldPolls:
			runtime.Gosched()
		default:
			p.sleep(w)
			idle = spinPolls // resume on the yield rung after a wake
		}
	}
}

// help lets a submitter that would otherwise wait for req run it
// itself. If no one is executing on req's worker, it takes the
// worker's run lock and executes that ring's requests in FIFO order up
// to and including req, on the worker's thread: the same order, clock,
// TLB and cache class the worker would have used, so virtual time is
// unchanged and only the host goroutine supplying the CPU differs. It
// never runs work queued behind req (that would make one waiter block
// on another caller's call). Reports whether req is done: a request
// ahead of req whose publish is still in flight stops the helper short.
//
//eleos:untrusted
//eleos:hotpath budget=0
func (p *Pool) help(req *request) bool {
	if req.done.Load() != 0 {
		return true
	}
	w := req.w
	if !w.run.TryLock() {
		return false
	}
	p.helped.Add(p.runThrough(w, req.ticket))
	w.run.Unlock()
	return req.done.Load() != 0
}

// await returns once req is done, helping run it when it can.
//
//eleos:hotpath budget=0
func (p *Pool) await(req *request) {
	for !p.help(req) {
		spinWait()
	}
}

// settle charges caller for observing a completion it submitted at
// stamp: the part of latency its own compute since then did not hide,
// then the completion poll. It is the one charge rule for every settled
// request; work is the worker cycles the completion carried.
//
//eleos:hotpath budget=0
func (p *Pool) settle(caller *sgx.Thread, stamp, latency, work uint64) {
	residual := caller.ChargeResidual(stamp, latency)
	caller.ChargeOutside(caller.Platform().Model.RPCPoll)
	p.waitCycles.Add(residual)
	p.settledWork.Add(work)
}

// runThrough executes w's queued requests in FIFO order, up to ticket
// last, on w's thread, and returns how many it ran. The caller holds
// w.run, which makes it the ring's single consumer.
//
//eleos:untrusted
//eleos:hotpath budget=0
func (p *Pool) runThrough(w *worker, last uint64) uint64 {
	ctx := w.th.HostContext()
	var n uint64
	for {
		req := w.ring.dequeueThrough(last)
		if req == nil {
			return n
		}
		p.depth.Add(-1)
		start := w.th.T.Cycles()
		req.fn(ctx)
		req.workCycles = w.th.T.Cycles() - start
		p.workerOps.Add(1)
		req.done.Store(1)
		n++
	}
}

// sleep is the bottom rung of the backoff ladder. The worker registers
// as sleeping, re-checks its own ring (a submitter publishes before it
// reads the flag, so this re-check closes the race), and only then
// blocks until an enqueue wakes it or it is retired. Runs on the
// untrusted worker thread (a host thread may futex-sleep; an enclave
// thread may not).
//
//eleos:untrusted
//eleos:hotpath budget=0
func (p *Pool) sleep(w *worker) {
	w.sleeping.Store(true)
	p.sleeps.Add(1)
	if !w.ring.empty() {
		w.sleeping.Store(false)
		return
	}
	select {
	case <-w.wake:
		p.wakes.Add(1)
		// Under the run lock: a submitter running its call on w.th
		// measures the call as a clock delta, and a wake charged inside
		// that window would bill the caller for it.
		w.run.Lock()
		w.th.T.Charge(p.plat.Model.RPCWake)
		w.run.Unlock()
	case <-w.retire:
	}
	w.sleeping.Store(false)
}

// Call delegates fn to a worker without exiting the enclave: an async
// call waited at once. The caller is charged the descriptor enqueue,
// the worker's whole latency (no compute of its own overlaps it) and
// the completion poll, but no EEXIT/EENTER, no TLB flush and no enclave
// state disturbance. Safe for concurrent use by many enclave threads.
// Returns ErrStopped if the pool is not running.
//
//eleos:hotpath budget=0
func (p *Pool) Call(caller *sgx.Thread, fn func(*sgx.HostCtx)) error {
	var fut Future
	if err := p.CallAsyncInto(&fut, caller, fn); err != nil {
		return err
	}
	fut.Wait(caller)
	return nil
}

// CallAsync posts fn and returns immediately with a Future. Only the
// descriptor enqueue is charged here; the caller keeps computing, and
// Future.Wait later charges just the residual part of the worker's
// latency that the caller's own compute did not hide (§3.1's
// asynchronous variant of the exit-less service).
//
//eleos:hotpath budget=1
func (p *Pool) CallAsync(caller *sgx.Thread, fn func(*sgx.HostCtx)) (*Future, error) {
	fut := &Future{}
	if err := p.CallAsyncInto(fut, caller, fn); err != nil {
		return nil, err
	}
	return fut, nil
}

// CallAsyncInto is CallAsync publishing into a caller-provided Future
// instead of allocating one, so completion handles can live inside
// pooled or recycled structures (exitio embeds one per pooled chain).
// *fut is overwritten unconditionally; it must not be an un-waited live
// future. The usual Future contract applies: it belongs to caller, and
// Wait must come from that same thread.
//
//eleos:hotpath budget=0
func (p *Pool) CallAsyncInto(fut *Future, caller *sgx.Thread, fn func(*sgx.HostCtx)) error {
	if p.state.Load() != poolRunning {
		return ErrStopped
	}
	m := caller.Platform().Model
	caller.T.Charge(m.RPCEnqueue)
	req := p.getReq(fn, caller.T.Cycles())
	one := [...]*request{req}
	if _, err := p.submit(caller, one[:]); err != nil {
		p.putReq(req)
		return err
	}
	p.calls.Add(1)
	*fut = Future{pool: p, req: req}
	return nil
}

// CallBatch delegates all fns with a single charge-and-publish: the
// caller pays one full enqueue plus the cheap marginal batch cost per
// additional descriptor, publishes the batch across the pool (request i
// on the ring after request i-1's), and then waits for all of them. The
// synchronous latency charged is the batch's parallel makespan across
// the pool, not the serial sum of the calls. Returns ErrStopped if the
// pool is not running.
//
//eleos:hotpath budget=2
func (p *Pool) CallBatch(caller *sgx.Thread, fns []func(*sgx.HostCtx)) error {
	n := len(fns)
	if n == 0 {
		return nil
	}
	if p.state.Load() != poolRunning {
		return ErrStopped
	}
	m := caller.Platform().Model
	caller.T.Charge(m.RPCEnqueue + uint64(n-1)*m.RPCBatchEnqueue)
	stamp := caller.T.Cycles()
	reqs := make([]*request, n)
	for i, fn := range fns {
		reqs[i] = p.getReq(fn, stamp)
	}
	workers, err := p.submit(caller, reqs)
	if err != nil {
		for _, req := range reqs {
			p.putReq(req)
		}
		return err
	}

	var total, maxWork uint64
	for _, req := range reqs {
		p.await(req)
		total += req.workCycles
		if req.workCycles > maxWork {
			maxWork = req.workCycles
		}
	}
	span := (total + uint64(workers) - 1) / uint64(workers)
	if span < maxWork {
		span = maxWork
	}
	p.settle(caller, stamp, span, total)
	p.calls.Add(uint64(n))
	p.batches.Add(1)
	p.batchedCalls.Add(uint64(n))
	for _, req := range reqs {
		p.putReq(req)
	}
	return nil
}

// spinWait yields the host CPU between polls. Virtual time is charged
// explicitly by the cost model, so the only job here is to keep the
// polling loops from starving other goroutines on the real machine.
func spinWait() {
	runtime.Gosched()
}
