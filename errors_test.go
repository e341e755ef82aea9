package eleos

import (
	"errors"
	"strings"
	"testing"

	"eleos/internal/cache"
	"eleos/internal/mckv"
)

// Every sentinel must be matchable with errors.Is through the public
// API alone, end to end from the operation that produces it.
func TestSentinelErrorsEndToEnd(t *testing.T) {
	rt := newRuntime(t)

	// ErrOutOfEPC: a page cache far beyond the machine's PRM.
	if _, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 1 << 40}); !errors.Is(err, ErrOutOfEPC) {
		t.Fatalf("oversized page cache error = %v, want ErrOutOfEPC", err)
	}

	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	// ErrFreed: the pointer is poisoned by Free; later use and a double
	// free both report it.
	p, err := ctx.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadAt(0, make([]byte, 8)); !errors.Is(err, ErrFreed) {
		t.Fatalf("read after free error = %v, want ErrFreed", err)
	}
	if err := p.WriteAt(0, []byte("x")); !errors.Is(err, ErrFreed) {
		t.Fatalf("write after free error = %v, want ErrFreed", err)
	}
	if err := p.Free(); !errors.Is(err, ErrFreed) {
		t.Fatalf("double free error = %v, want ErrFreed", err)
	}

	// ErrSegmentBusy: a segment mounted by one enclave refuses a second
	// mount until it is detached.
	other, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Destroy()
	ctxB := other.NewContext()
	defer ctxB.Close()
	seg, err := rt.NewSegment(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := ctx.Attach(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctxB.Attach(seg); !errors.Is(err, ErrSegmentBusy) {
		t.Fatalf("double attach error = %v, want ErrSegmentBusy", err)
	}
	if err := ctx.Detach(pa); err != nil {
		t.Fatal(err)
	}
	if pb, err := ctxB.Attach(seg); err != nil {
		t.Fatal(err)
	} else if err := ctxB.Detach(pb); err != nil {
		t.Fatal(err)
	}
	// The detached pointer is poisoned too.
	if err := pa.ReadAt(0, make([]byte, 8)); !errors.Is(err, ErrFreed) {
		t.Fatalf("read after detach error = %v, want ErrFreed", err)
	}
}

// TestSentinelErrorTable walks every public path documented to produce
// one of the four headline sentinels and asserts errors.Is matches each
// through the public re-export in errors.go.
func TestSentinelErrorTable(t *testing.T) {
	rt := newRuntime(t)
	newCtx := func(t *testing.T) *Ctx {
		t.Helper()
		encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(encl.Destroy)
		ctx := encl.NewContext()
		t.Cleanup(ctx.Close)
		return ctx
	}
	// Two long-lived contexts shared by the rows: each enclave reserves
	// its backing store in the host arena for the life of the runtime,
	// so one enclave per row would exhaust the arena.
	ctxA, ctxB := newCtx(t), newCtx(t)
	freedPtr := func(t *testing.T) *Ptr {
		t.Helper()
		p, err := ctxA.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Free(); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// A second runtime, already closed, for the ErrPoolStopped rows. Its
	// context outlives Close so the threads stay usable as callers.
	closedRT, err := NewRuntime()
	if err != nil {
		t.Fatal(err)
	}
	closedEncl, err := closedRT.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer closedEncl.Destroy()
	closedCtx := closedEncl.NewContext()
	defer closedCtx.Close()
	closedRT.Close()

	cases := []struct {
		name string
		want error
		op   func(t *testing.T) error
	}{
		{"OutOfEPC/runtime machine config beyond PRM", ErrOutOfEPC, func(t *testing.T) error {
			over, err := NewRuntime(WithMachine(MachineConfig{UsablePRMBytes: 256 << 20}))
			if err == nil {
				over.Close()
			}
			return err
		}},
		{"OutOfEPC/enclave page cache beyond PRM", ErrOutOfEPC, func(t *testing.T) error {
			encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 1 << 40})
			if err == nil {
				encl.Destroy()
			}
			return err
		}},

		{"Freed/Read", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).Read(make([]byte, 8))
		}},
		{"Freed/Write", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).Write([]byte("x"))
		}},
		{"Freed/ReadAt", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).ReadAt(0, make([]byte, 8))
		}},
		{"Freed/WriteAt", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).WriteAt(0, []byte("x"))
		}},
		{"Freed/ReadU64", ErrFreed, func(t *testing.T) error {
			_, err := freedPtr(t).ReadU64()
			return err
		}},
		{"Freed/WriteU64", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).WriteU64(7)
		}},
		{"Freed/Advance", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).Advance(8)
		}},
		{"Freed/Seek", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).Seek(8)
		}},
		{"Freed/double Free", ErrFreed, func(t *testing.T) error {
			return freedPtr(t).Free()
		}},
		{"Freed/use after Detach", ErrFreed, func(t *testing.T) error {
			ctx := ctxA
			seg, err := rt.NewSegment(1<<20, 4096)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ctx.Attach(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Detach(p); err != nil {
				t.Fatal(err)
			}
			return p.ReadAt(0, make([]byte, 8))
		}},

		{"SegmentBusy/Attach while mounted elsewhere", ErrSegmentBusy, func(t *testing.T) error {
			seg, err := rt.NewSegment(1<<20, 4096)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ctxA.Attach(seg)
			if err != nil {
				t.Fatal(err)
			}
			_, attachErr := ctxB.Attach(seg)
			if err := ctxA.Detach(p); err != nil {
				t.Fatal(err)
			}
			return attachErr
		}},
		{"SegmentBusy/Detach while a page is linked", ErrSegmentBusy, func(t *testing.T) error {
			ctx := ctxB
			seg, err := rt.NewSegment(1<<20, 4096)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ctx.Attach(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Detach unlinks its own spointer first, so the pin must come
			// from a second spointer into the segment: clone, then link
			// the clone with a current-offset read.
			clone := p.Raw().Clone()
			if err := clone.Read(ctx.Thread(), make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
			detachErr := ctx.Detach(p)
			clone.Unlink(ctx.Thread())
			if err := ctx.Detach(p); err != nil {
				t.Fatal(err)
			}
			return detachErr
		}},

		{"PoolStopped/Call", ErrPoolStopped, func(t *testing.T) error {
			return closedRT.Pool().Call(closedCtx.Thread(), func(h *HostCtx) {})
		}},
		{"PoolStopped/CallAsync", ErrPoolStopped, func(t *testing.T) error {
			_, err := closedRT.Pool().CallAsync(closedCtx.Thread(), func(h *HostCtx) {})
			return err
		}},
		{"PoolStopped/CallBatch", ErrPoolStopped, func(t *testing.T) error {
			return closedRT.Pool().CallBatch(closedCtx.Thread(), []func(*HostCtx){func(h *HostCtx) {}})
		}},
		{"PoolStopped/mckv ServeGet", ErrPoolStopped, func(t *testing.T) error {
			store, err := mckv.NewStore(closedRT.Platform(), closedCtx.Thread(), mckv.Config{
				MemLimitBytes: 1 << 20,
				Placement:     mckv.PlaceEnclave,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := mckv.NewServerIO(store, closedRT.IOEngine())
			defer srv.Close()
			_, err = srv.ServeGet(closedCtx.Thread(), []byte("key"))
			return err
		}},

		{"ConflictingOptions/fixed pool with worker bounds", ErrConflictingOptions, func(t *testing.T) error {
			over, err := NewRuntime(WithRPCWorkers(2), WithWorkerBounds(1, 4))
			if err == nil {
				over.Close()
			}
			return err
		}},

		{"CrossDomain/root allocation freed via service domain", ErrCrossDomain, func(t *testing.T) error {
			p, err := ctxA.Malloc(4096)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := ctxA.Enclave().NewService("crossdomain", WithServiceEPC(64<<10))
			if err != nil {
				t.Fatal(err)
			}
			freeErr := svc.Domain().Free(ctxA.Thread(), p.Raw())
			if err := p.Free(); err != nil {
				t.Fatal(err)
			}
			return freeErr
		}},

		{"CrossEnclave/CrossCall into another enclave", ErrCrossEnclave, func(t *testing.T) error {
			far, err := ctxB.Enclave().NewService("farsvc", WithServiceEPC(64<<10))
			if err != nil {
				t.Fatal(err)
			}
			return ctxA.CrossCall(far, func(*Ctx) {})
		}},

		{"Canceled/linked op behind a failed op", ErrCanceled, func(t *testing.T) error {
			q := ctxA.IO()
			buf := make([]byte, 8)
			q.Push(IOPread{FS: rt.NewFS(), FD: 9999, Off: 0, Buf: buf})
			q.PushLinked(IOPread{FS: rt.NewFS(), FD: 9999, Off: 0, Buf: buf})
			cqes, err := q.SubmitAndWait()
			if err != nil {
				t.Fatal(err)
			}
			if len(cqes) != 2 || cqes[0].Err == nil {
				t.Fatalf("expected a failed op followed by a canceled op, got %+v", cqes)
			}
			return cqes[1].Err
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.op(t)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// ErrPoolStopped: exit-less calls against a closed runtime fail with a
// matchable sentinel at the pool level.
func TestPoolStoppedAfterClose(t *testing.T) {
	rt, err := NewRuntime()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := rt.NewEnclave(EnclaveConfig{PageCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	ctx := encl.NewContext()
	defer ctx.Close()

	rt.Close()
	if err := rt.Pool().Call(ctx.Thread(), func(h *HostCtx) {}); !errors.Is(err, ErrPoolStopped) {
		t.Fatalf("Call on closed runtime = %v, want ErrPoolStopped", err)
	}
	if _, err := rt.Pool().CallAsync(ctx.Thread(), func(h *HostCtx) {}); !errors.Is(err, ErrPoolStopped) {
		t.Fatalf("CallAsync on closed runtime = %v, want ErrPoolStopped", err)
	}

	// The panicking convenience wrappers surface the closure too.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Exitless on a closed runtime did not panic")
			}
		}()
		ctx.Exitless(func(h *HostCtx) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Go on a closed runtime did not panic")
			}
		}()
		ctx.Go(func(h *HostCtx) {})
	}()
}

// TestNewRuntimeRejectsBadOptions walks option values out of range:
// NewRuntime must fail with an error naming the option instead of
// panicking or silently coercing the value. The in-range edges next to
// them must still build.
func TestNewRuntimeRejectsBadOptions(t *testing.T) {
	eightWay := WithMachine(MachineConfig{LLC: cache.Config{SizeBytes: 8 << 20, Ways: 8}})
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error; "" means NewRuntime succeeds
	}{
		{"CAT ways = LLC ways", []Option{WithCATWays(16)}, "WithCATWays(16)"},
		{"CAT ways beyond LLC ways", []Option{WithCATWays(40)}, "WithCATWays(40)"},
		{"negative CAT ways", []Option{WithCATWays(-1)}, "WithCATWays(-1)"},
		{"CAT ways on a smaller LLC", []Option{eightWay, WithCATWays(8)}, "8-way LLC"},
		{"negative workers", []Option{WithRPCWorkers(-3)}, "WithRPCWorkers(-3)"},
		{"negative ring", []Option{WithRPCRing(-1)}, "WithRPCRing(-1)"},
		{"largest CAT split", []Option{WithCATWays(15)}, ""},
		{"largest CAT split on a smaller LLC", []Option{eightWay, WithCATWays(7)}, ""},
		{"CAT off", []Option{WithCATWays(0)}, ""},
		{"default workers and ring", []Option{WithRPCWorkers(0), WithRPCRing(0)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := NewRuntime(tc.opts...)
			if err == nil {
				rt.Close()
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("NewRuntime failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
