package bench

import (
	"eleos/internal/exitio"
	"eleos/internal/netsim"
	"eleos/internal/report"
)

func init() {
	register("io-engine", "Unified exit-less I/O engine: per-op sync RPC vs linked async chains", runIOEngine)
}

// ioKeyBytes/ioLookupCycles shape the memcached-style GET the experiment
// replays: a 16-byte key, a fixed store-lookup cost, and the request/
// response envelope sizes of the mckv wire format.
const (
	ioKeyBytes     = 16
	ioLookupCycles = 2000
	ioReqBytes     = 8 + ioKeyBytes + 28
	ioRespOverhead = 40
)

// runIOEngine measures one serving thread's GET loop — receive, decrypt,
// look up, encrypt, send — through the exitio engine in the two shapes
// the servers use:
//
//   - sync: ModeRPCSync, one single-op chain per Recv and per Send. Two
//     doorbells per request and the worker's full latency charged — the
//     pre-engine per-server switch, exactly.
//   - linked async: ModeRPCAsync over two interleaved client streams.
//     Each response SEND links the next request's RECV into one chain
//     (one doorbell per request), and the chain's latency hides behind
//     the other stream's compute — the paper's batching idea applied to
//     the request loop.
func runIOEngine(rc RunConfig) (*Result, error) {
	ops := rc.Ops

	t := report.New("GET loop throughput by submission shape (2 RPC workers, single serving thread)",
		"value B", "sync Kops/s", "async Kops/s", "async/sync", "sync db/req", "async db/req")
	t.Note = "db/req = trust-boundary doorbells per request; async links SEND(i)+RECV(i+1) into one chain across two streams"

	for _, vlen := range []int{1024, 4096} {
		syncTput, syncDB, err := ioSyncRun(ops, vlen)
		if err != nil {
			return nil, err
		}
		asyncTput, asyncDB, err := ioAsyncRun(ops, vlen)
		if err != nil {
			return nil, err
		}
		t.AddRow(vlen, syncTput/1e3, asyncTput/1e3, asyncTput/syncTput, syncDB, asyncDB)
	}

	return &Result{
		ID:     "io-engine",
		Title:  "Unified exit-less I/O engine: per-op sync RPC vs linked async chains",
		Tables: []*report.Table{t},
	}, nil
}

func ioSyncRun(ops, vlen int) (tput, doorbellsPerReq float64, err error) {
	v := enclaveEnv(0).withPool(2)
	defer v.close()
	eng, err := exitio.NewEngine(exitio.ModeRPCSync, v.pool)
	if err != nil {
		return 0, 0, err
	}
	sock := netsim.NewSocket(v.plat, 1<<20)
	defer sock.Close()
	q := eng.NewQueue()
	key := make([]byte, ioKeyBytes)
	val := make([]byte, vlen)
	respN := vlen + ioRespOverhead
	// Ops are reused as pointers across iterations: boxing a struct op
	// into the Op interface costs one heap copy per Push, a pointer none.
	rcv := &exitio.Recv{Sock: sock, N: ioReqBytes}
	snd := &exitio.Send{Sock: sock, N: respN}

	serve := func() error {
		sock.Deliver(key)
		q.Push(rcv)
		if _, err := q.SubmitAndWait(v.th); err != nil {
			return err
		}
		v.th.Read(sock.UserBuf(), key)
		netsim.CryptoCost(v.th.T, v.plat.Model, ioReqBytes)
		v.th.T.Charge(ioLookupCycles)
		netsim.CryptoCost(v.th.T, v.plat.Model, respN)
		v.th.Write(sock.UserBuf(), val)
		q.Push(snd)
		_, err := q.SubmitAndWait(v.th)
		return err
	}

	for i := 0; i < 64; i++ { // warm-up
		if err := serve(); err != nil {
			return 0, 0, err
		}
	}
	resetCounters(v.plat, v.th, v.heap)
	st0 := eng.Stats()
	for i := 0; i < ops; i++ {
		if err := serve(); err != nil {
			return 0, 0, err
		}
	}
	st1 := eng.Stats()
	tput = float64(ops) / v.plat.Model.Seconds(v.th.T.Cycles())
	doorbellsPerReq = float64(st1.Doorbells-st0.Doorbells) / float64(ops)
	return tput, doorbellsPerReq, nil
}

func ioAsyncRun(ops, vlen int) (tput, doorbellsPerReq float64, err error) {
	v := enclaveEnv(0).withPool(2)
	defer v.close()
	eng, err := exitio.NewEngine(exitio.ModeRPCAsync, v.pool)
	if err != nil {
		return 0, 0, err
	}
	type stream struct {
		sock *netsim.Socket
		q    *exitio.Queue
		rcv  *exitio.Recv
		snd  *exitio.Send
	}
	key := make([]byte, ioKeyBytes)
	val := make([]byte, vlen)
	respN := vlen + ioRespOverhead
	var streams [2]stream
	for i := range streams {
		sock := netsim.NewSocket(v.plat, 1<<20)
		// Per-stream pointer ops, reused across iterations (a stream's
		// ops are re-pushed only after its chain has been drained).
		streams[i] = stream{
			sock: sock, q: eng.NewQueue(),
			rcv: &exitio.Recv{Sock: sock, N: ioReqBytes},
			snd: &exitio.Send{Sock: sock, N: respN},
		}
		defer streams[i].sock.Close()
	}

	// prime stages RECV of each stream's first request.
	prime := func() error {
		for i := range streams {
			streams[i].sock.Deliver(key)
			streams[i].q.Push(streams[i].rcv)
			if err := streams[i].q.Submit(v.th); err != nil {
				return err
			}
		}
		return nil
	}
	// serve drains stream s's in-flight chain (freeing its socket),
	// computes the response, and rings one doorbell carrying SEND(i)
	// linked with RECV(i+1) — while the other stream's chain runs on a
	// worker behind this compute.
	serve := func(s *stream, last bool) error {
		reaped := s.q.WaitN(v.th, s.q.InFlight())
		if err := exitio.FirstErr(reaped); err != nil {
			return err
		}
		v.th.Read(s.sock.UserBuf(), key)
		netsim.CryptoCost(v.th.T, v.plat.Model, ioReqBytes)
		v.th.T.Charge(ioLookupCycles)
		netsim.CryptoCost(v.th.T, v.plat.Model, respN)
		v.th.Write(s.sock.UserBuf(), val)
		s.q.Push(s.snd)
		if !last {
			s.sock.Deliver(key)
			s.q.PushLinked(s.rcv)
		}
		return s.q.Submit(v.th)
	}
	drain := func() error {
		for i := range streams {
			if err := exitio.FirstErr(streams[i].q.WaitN(v.th, streams[i].q.InFlight())); err != nil {
				return err
			}
		}
		return nil
	}

	if err := prime(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < 64; i++ { // warm-up
		if err := serve(&streams[i%2], i >= 62); err != nil {
			return 0, 0, err
		}
	}
	if err := drain(); err != nil {
		return 0, 0, err
	}
	resetCounters(v.plat, v.th, v.heap)
	st0 := eng.Stats()
	if err := prime(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < ops; i++ {
		if err := serve(&streams[i%2], i >= ops-2); err != nil {
			return 0, 0, err
		}
	}
	if err := drain(); err != nil {
		return 0, 0, err
	}
	st1 := eng.Stats()
	tput = float64(ops) / v.plat.Model.Seconds(v.th.T.Cycles())
	doorbellsPerReq = float64(st1.Doorbells-st0.Doorbells) / float64(ops)
	return tput, doorbellsPerReq, nil
}
