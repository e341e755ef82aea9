package mckv

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"eleos/internal/exitio"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

type env struct {
	plat *sgx.Platform
	encl *sgx.Enclave
	th   *sgx.Thread
	heap *suvm.Heap
}

func newEnv(t testing.TB) *env {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	heap, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 4 << 20, BackingBytes: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return &env{plat: plat, encl: encl, th: th, heap: heap}
}

func (e *env) store(t testing.TB, placement Placement, limit uint64) *Store {
	t.Helper()
	s, err := NewStore(e.plat, e.th, Config{
		MemLimitBytes: limit,
		Placement:     placement,
		Heap:          e.heap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetGetDeleteAllPlacements(t *testing.T) {
	for _, pl := range []Placement{PlaceHost, PlaceEnclave, PlaceSUVM, PlaceSUVMDirect} {
		pl := pl
		t.Run(pl.String(), func(t *testing.T) {
			e := newEnv(t)
			s := e.store(t, pl, 16<<20)
			rng := rand.New(rand.NewSource(1))
			type item struct{ k, v []byte }
			var items []item
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("key-%04d-%08x", i, rng.Uint32()))
				v := make([]byte, 100+rng.Intn(2000))
				rng.Read(v)
				items = append(items, item{k, v})
				if err := s.Set(e.th, k, v); err != nil {
					t.Fatalf("set %d: %v", i, err)
				}
			}
			buf := make([]byte, 4096)
			for i, it := range items {
				n, err := s.Get(e.th, it.k, buf)
				if err != nil {
					t.Fatalf("get %d: %v", i, err)
				}
				if !bytes.Equal(buf[:n], it.v) {
					t.Fatalf("get %d: value mismatch", i)
				}
			}
			// Replace in place with different size.
			nv := make([]byte, 5000)
			rng.Read(nv)
			if err := s.Set(e.th, items[0].k, nv); err != nil {
				t.Fatal(err)
			}
			big := make([]byte, 8192)
			n, _ := s.Get(e.th, items[0].k, big)
			if !bytes.Equal(big[:n], nv) {
				t.Fatal("replacement lost")
			}
			if got := s.ItemCount(); got != 300 {
				t.Fatalf("item count %d want 300", got)
			}
			if err := s.Delete(e.th, items[1].k); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(e.th, items[1].k, buf); err != ErrNotFound {
				t.Fatalf("deleted key error = %v", err)
			}
		})
	}
}

func TestLRUEvictionUnderMemoryPressure(t *testing.T) {
	e := newEnv(t)
	s := e.store(t, PlaceHost, 2<<20) // 2 MiB pool
	val := make([]byte, 8<<10)
	// Insert 4 MiB of values: half must be evicted.
	for i := 0; i < 512; i++ {
		if err := s.Set(e.th, []byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if s.Evictions() == 0 {
		t.Fatal("no LRU evictions under memory pressure")
	}
	// The most recent items must still be present; the oldest gone.
	buf := make([]byte, 16<<10)
	if _, err := s.Get(e.th, []byte("k000511"), buf); err != nil {
		t.Fatalf("newest item evicted: %v", err)
	}
	if _, err := s.Get(e.th, []byte("k000000"), buf); err != ErrNotFound {
		t.Fatalf("oldest item survived (err=%v)", err)
	}
}

func TestLRUGetProtectsHotItems(t *testing.T) {
	e := newEnv(t)
	s := e.store(t, PlaceHost, 2<<20)
	val := make([]byte, 8<<10)
	hot := []byte("hot-key")
	if err := s.Set(e.th, hot, val); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	for i := 0; i < 500; i++ {
		if err := s.Set(e.th, []byte(fmt.Sprintf("cold%05d", i)), val); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if _, err := s.Get(e.th, hot, buf); err != nil {
				t.Fatalf("hot item evicted at i=%d: %v", i, err)
			}
		}
	}
	if _, err := s.Get(e.th, hot, buf); err != nil {
		t.Fatalf("hot item evicted despite GET traffic: %v", err)
	}
}

func TestServerModesExitBehaviour(t *testing.T) {
	e := newEnv(t)
	s := e.store(t, PlaceSUVM, 16<<20)
	pool := rpc.NewPool(e.plat, 1, 64)
	pool.Start()
	defer pool.Stop()

	key := []byte("the-key")
	val := make([]byte, 1024)
	for mode, wantExits := range map[exitio.Mode]bool{exitio.ModeOCall: true, exitio.ModeRPCSync: false} {
		eng, err := exitio.NewEngine(mode, pool)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServerIO(s, eng)
		if err := srv.ServeSet(e.th, key, val); err != nil {
			t.Fatal(err)
		}
		exits0, _, _, _, _ := e.encl.Stats().Snapshot()
		for i := 0; i < 20; i++ {
			if _, err := srv.ServeGet(e.th, key); err != nil {
				t.Fatal(err)
			}
		}
		exits1, _, _, _, _ := e.encl.Stats().Snapshot()
		if wantExits && exits1 == exits0 {
			t.Errorf("%v: expected exits, saw none", mode)
		}
		if !wantExits && exits1 != exits0 {
			t.Errorf("%v: expected no exits, saw %d", mode, exits1-exits0)
		}
		srv.Close()
	}
}

func TestTextProtocolOverTCP(t *testing.T) {
	e := newEnv(t)
	s := e.store(t, PlaceSUVM, 16<<20)
	pool := rpc.NewPool(e.plat, 1, 64)
	pool.Start()
	defer pool.Stop()
	eng, err := exitio.NewEngine(exitio.ModeRPCAsync, pool)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		th := e.encl.NewThread()
		th.Enter()
		_ = ServeConnIO(conn, s, th, eng)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(s string) { conn.Write([]byte(s)) }
	line := func() string {
		l, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return l
	}

	send("set apple 0 0 5\r\nhello\r\n")
	if got := line(); got != "STORED\r\n" {
		t.Fatalf("set response %q", got)
	}
	send("get apple\r\n")
	if got := line(); got != "VALUE apple 0 5\r\n" {
		t.Fatalf("get header %q", got)
	}
	if got := line(); got != "hello\r\n" {
		t.Fatalf("get data %q", got)
	}
	if got := line(); got != "END\r\n" {
		t.Fatalf("get trailer %q", got)
	}
	send("delete apple\r\n")
	if got := line(); got != "DELETED\r\n" {
		t.Fatalf("delete response %q", got)
	}
	send("get apple\r\n")
	if got := line(); got != "END\r\n" {
		t.Fatalf("get-missing %q", got)
	}
	send("stats\r\n")
	sawEnd := false
	for i := 0; i < 10; i++ {
		if line() == "END\r\n" {
			sawEnd = true
			break
		}
	}
	if !sawEnd {
		t.Fatal("stats did not terminate with END")
	}
	send("quit\r\n")
	wg.Wait()
}

func TestConcurrentStoreAccess(t *testing.T) {
	e := newEnv(t)
	s := e.store(t, PlaceSUVM, 32<<20)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := e.encl.NewThread()
			th.Enter()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 4096)
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("w%d-k%04d", w, rng.Intn(100)))
				v := make([]byte, 64+rng.Intn(1024))
				for j := range v {
					v[j] = byte(w + 1)
				}
				if err := s.Set(th, k, v); err != nil {
					t.Errorf("worker %d set: %v", w, err)
					return
				}
				n, err := s.Get(th, k, buf)
				if err != nil {
					t.Errorf("worker %d get: %v", w, err)
					return
				}
				for j := 0; j < n; j++ {
					if buf[j] != byte(w+1) {
						t.Errorf("worker %d: cross-contaminated value", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
