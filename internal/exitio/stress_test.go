package exitio_test

import (
	"errors"
	"sync"
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/fsim"
	"eleos/internal/netsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
)

// Four enclave threads drive one shared engine concurrently — each with
// its own queue, socket and file — mixing linked socket chains with
// async file writes. Run under -race (make check), this is the
// tripwire for submission/completion races: a reaper settling a chain
// through Future.Wait while a worker or a helping reaper runs it, chain
// and request recycling after the done flag, and the engine's shared
// counters.
func TestStressSharedEngine(t *testing.T) {
	const (
		threads = 4
		rounds  = 300
	)
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	pool := rpc.NewPool(plat, 2, 128)
	pool.Start()
	defer pool.Stop()
	eng, err := exitio.NewEngine(exitio.ModeRPCAsync, pool)
	if err != nil {
		t.Fatal(err)
	}
	fs := fsim.NewFS(plat)

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			th := encl.NewThread()
			th.Enter()
			defer th.Exit()
			sock := netsim.NewSocket(plat, 8192)
			defer sock.Close()
			q := eng.NewQueue()

			q.Push(exitio.Open{FS: fs, Name: "/stress/" + string(rune('a'+worker))})
			cqes, err := q.SubmitAndWait(th)
			if err != nil {
				errs <- err
				return
			}
			fd := cqes[0].N

			data := make([]byte, 256)
			completed := 0
			for r := 0; r < rounds; r++ {
				// A linked request/response socket chain...
				sock.Deliver(data[:64])
				q.Push(exitio.Send{Sock: sock, N: 128})
				q.PushLinked(exitio.Recv{Sock: sock, N: 128})
				// ...and an unlinked async file append, all in flight
				// together.
				q.Push(exitio.Pwrite{FS: fs, FD: fd, Off: uint64(r) * 256, Data: data})
				if err := q.Submit(th); err != nil {
					errs <- err
					return
				}
				th.T.Charge(2000) // overlap compute
				// Drain the round before reusing the socket: a Socket
				// allows one in-flight chain at a time (its owner guard
				// panics otherwise).
				reaped := q.WaitN(th, q.InFlight())
				if err := exitio.FirstErr(reaped); err != nil {
					errs <- err
					return
				}
				completed += len(reaped)
			}
			q.Push(exitio.Fsync{FS: fs, FD: fd})
			q.PushLinked(exitio.Close{FS: fs, FD: fd})
			tail, err := q.SubmitAndWait(th)
			if err != nil {
				errs <- err
				return
			}
			if err := exitio.FirstErr(tail); err != nil {
				errs <- err
				return
			}
			completed += len(tail)
			if want := rounds*3 + 2; completed != want {
				errs <- errors.New("completion count mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := eng.Stats()
	wantOps := uint64(threads * (1 + rounds*3 + 2))
	if st.Ops != wantOps {
		t.Fatalf("engine saw %d ops, want %d", st.Ops, wantOps)
	}
	wantChains := uint64(threads * (1 + rounds*2 + 1))
	if st.Chains != wantChains || st.Doorbells != wantChains {
		t.Fatalf("engine saw %d chains / %d doorbells, want %d", st.Chains, st.Doorbells, wantChains)
	}
	if st.Linked != uint64(threads*(rounds+1)) {
		t.Fatalf("engine saw %d linked ops, want %d", st.Linked, threads*(rounds+1))
	}
}
