package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"eleos/internal/cache"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

type fixture struct {
	plat *sgx.Platform
	encl *sgx.Enclave
	th   *sgx.Thread
	heap *suvm.Heap
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		t.Fatal(err)
	}
	th := encl.NewThread()
	th.Enter()
	heap, err := suvm.New(encl, th, suvm.Config{PageCacheBytes: 1 << 20, BackingBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{plat: plat, encl: encl, th: th, heap: heap}
}

// mems returns one region of each placement kind.
func (f *fixture) mems(t testing.TB, size uint64) map[string]Mem {
	t.Helper()
	sr, err := NewSUVMRegion(f.heap, size)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Mem{
		"host":    HostRegion(f.plat, size),
		"enclave": EnclaveRegion(f.encl, size),
		"suvm":    sr,
	}
}

func TestFixedTableAllPlacementsAllLayouts(t *testing.T) {
	f := newFixture(t)
	const entries = 4096
	for _, layout := range []Layout{OpenAddressing, Chaining} {
		buckets := uint64(2 * entries)
		size := FixedTableMemSize(layout, buckets, entries)
		for name, mem := range f.mems(t, size) {
			t.Run(fmt.Sprintf("%s/%s", layout, name), func(t *testing.T) {
				tab, err := NewFixedTable(mem, layout, buckets, entries)
				if err != nil {
					t.Fatal(err)
				}
				for k := uint64(1); k <= entries; k++ {
					if err := tab.Put(f.th, k, k*3); err != nil {
						t.Fatalf("put %d: %v", k, err)
					}
				}
				for k := uint64(1); k <= entries; k++ {
					v, err := tab.Get(f.th, k)
					if err != nil || v != k*3 {
						t.Fatalf("get %d: v=%d err=%v", k, v, err)
					}
				}
				if err := tab.Add(f.th, 7, 100); err != nil {
					t.Fatal(err)
				}
				if v, _ := tab.Get(f.th, 7); v != 7*3+100 {
					t.Fatalf("Add result %d", v)
				}
				if _, err := tab.Get(f.th, entries+999); err != ErrNotFound {
					t.Fatalf("missing key error = %v", err)
				}
				if _, err := tab.Get(f.th, 0); err != ErrBadKey {
					t.Fatalf("zero key error = %v", err)
				}
			})
		}
	}
}

// writeLog is a Mem that records the extent of every write.
type writeLog struct {
	Mem
	writes [][2]uint64 // offset, length
}

func (w *writeLog) Write(th *sgx.Thread, off uint64, data []byte) error {
	w.writes = append(w.writes, [2]uint64{off, uint64(len(data))})
	return w.Mem.Write(th, off, data)
}

func TestLoadMatchesSequentialPuts(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name             string
		layout           Layout
		buckets, entries uint64
		wraps            bool // a probe cluster wraps past the last slot
	}{
		{"open/small", OpenAddressing, 2048, 1000, false},
		{"open/2-chunks", OpenAddressing, 1 << 17, 3000, false},
		{"open/full-wraps", OpenAddressing, 8, 8, true},
		{"chaining/small", Chaining, 2048, 1000, false},
		// 128 KiB of heads then 24-byte nodes: the 1 MiB chunk
		// boundary falls inside a node.
		{"chaining/2-chunks", Chaining, 1 << 14, 40000, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			size := FixedTableMemSize(c.layout, c.buckets, c.entries)
			want := HostRegion(f.plat, size)
			tab, err := NewFixedTable(want, c.layout, c.buckets, c.entries)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= c.entries; k++ {
				if err := tab.Put(f.th, k, k); err != nil {
					t.Fatal(err)
				}
			}
			got := &writeLog{Mem: HostRegion(f.plat, size)}
			loaded, err := NewFixedTable(got, c.layout, c.buckets, c.entries)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Load(f.th, c.entries); err != nil {
				t.Fatal(err)
			}
			wantBytes, gotBytes := make([]byte, size), make([]byte, size)
			if err := want.Read(f.th, 0, wantBytes); err != nil {
				t.Fatal(err)
			}
			if err := got.Read(f.th, 0, gotBytes); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatal("Load's bytes differ from sequential Puts")
			}
			for i, w := range got.writes {
				if w[0] != uint64(i)*loadChunk || w[1] != min(size-w[0], loadChunk) {
					t.Fatalf("write %d covers [%d,+%d), want offset-ordered %d-byte chunks", i, w[0], w[1], loadChunk)
				}
			}
			if n := uint64(len(got.writes)); n != (size+loadChunk-1)/loadChunk {
				t.Fatalf("%d writes for %d bytes", n, size)
			}
			if loaded.Len() != c.entries {
				t.Fatalf("Len = %d after loading %d", loaded.Len(), c.entries)
			}
			if v, err := loaded.Get(f.th, c.entries); err != nil || v != c.entries {
				t.Fatalf("Get(%d) = %d, %v", c.entries, v, err)
			}
			if c.wraps && !wrapsToSlotZero(gotBytes, c.buckets) {
				t.Fatal("no probe cluster wraps past the last slot; pick another size")
			}
		})
	}
}

// wrapsToSlotZero reports whether some key of an open-addressing image
// sits at a lower slot than its home slot, i.e. its probe wrapped.
func wrapsToSlotZero(img []byte, buckets uint64) bool {
	for slot := uint64(0); slot < buckets; slot++ {
		if k := leU64(img[slot*slotBytes:]); k != 0 && slot < hash64(k)&(buckets-1) {
			return true
		}
	}
	return false
}

func TestLoadRejectsOverfullTables(t *testing.T) {
	f := newFixture(t)
	for _, layout := range []Layout{OpenAddressing, Chaining} {
		mem := HostRegion(f.plat, FixedTableMemSize(layout, 8, 9))
		tab, _ := NewFixedTable(mem, layout, 8, 8)
		if err := tab.Load(f.th, 9); err != ErrFull {
			t.Fatalf("%v: loading 9 entries into 8 = %v, want ErrFull", layout, err)
		}
	}
}

// BenchmarkFixedTableLoad loads a parameter-server table of ps-spill's
// size (2M entries, 4M slots, 64 MiB) into host memory. Every Load
// rewrites the whole image, so the iterations reuse one region.
func BenchmarkFixedTableLoad(b *testing.B) {
	plat, err := sgx.NewPlatform(sgx.Config{UsablePRMBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	th := plat.NewHostThread(cache.CoSDefault)
	const entries, buckets = 2 << 20, 4 << 20
	tab, err := NewFixedTable(HostRegion(plat, FixedTableMemSize(OpenAddressing, buckets, entries)), OpenAddressing, buckets, entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Load(th, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFixedTableFull(t *testing.T) {
	f := newFixture(t)
	mem := HostRegion(f.plat, FixedTableMemSize(Chaining, 4, 3))
	tab, _ := NewFixedTable(mem, Chaining, 4, 3)
	for k := uint64(1); k <= 3; k++ {
		if err := tab.Put(f.th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Put(f.th, 99, 1); err != ErrFull {
		t.Fatalf("overfull chain insert error = %v", err)
	}
}

func TestBlobTable(t *testing.T) {
	f := newFixture(t)
	sr, err := NewSUVMRegion(f.heap, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewBlobTable(sr, 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	type kvPair struct{ k, v []byte }
	var pairs []kvPair
	for i := 0; i < 200; i++ {
		k := make([]byte, 40)
		v := make([]byte, 1000+rng.Intn(4096))
		rng.Read(k)
		rng.Read(v)
		pairs = append(pairs, kvPair{k, v})
		if err := tab.Put(f.th, k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	val := make([]byte, 8192)
	for i, p := range pairs {
		n, err := tab.Get(f.th, p.k, val)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(val[:n], p.v) {
			t.Fatalf("get %d: value mismatch", i)
		}
	}
	// Update in place.
	nv := make([]byte, len(pairs[0].v))
	rng.Read(nv)
	if err := tab.Put(f.th, pairs[0].k, nv); err != nil {
		t.Fatal(err)
	}
	n, _ := tab.Get(f.th, pairs[0].k, val)
	if !bytes.Equal(val[:n], nv) {
		t.Fatal("in-place update lost")
	}
	if _, err := tab.Get(f.th, []byte("no-such-key......"), val); err != ErrNotFound {
		t.Fatalf("missing blob key error = %v", err)
	}
}

func TestFixedTablePropertyVsMap(t *testing.T) {
	// Property test: a FixedTable over any placement behaves like a Go
	// map under random Put/Add/Get sequences.
	f := newFixture(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const entries = 512
		layout := Layout(rng.Intn(2))
		mem := HostRegion(f.plat, FixedTableMemSize(layout, 1024, entries))
		tab, err := NewFixedTable(mem, layout, 1024, entries)
		if err != nil {
			return false
		}
		oracle := map[uint64]uint64{}
		for i := 0; i < 2000; i++ {
			key := uint64(rng.Intn(entries)) + 1
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				if len(oracle) >= entries {
					if _, ok := oracle[key]; !ok {
						continue
					}
				}
				if err := tab.Put(f.th, key, v); err != nil {
					return false
				}
				oracle[key] = v
			case 1:
				if len(oracle) >= entries {
					if _, ok := oracle[key]; !ok {
						continue
					}
				}
				if err := tab.Add(f.th, key, 5); err != nil {
					return false
				}
				oracle[key] += 5
			case 2:
				v, err := tab.Get(f.th, key)
				want, ok := oracle[key]
				if !ok {
					if err != ErrNotFound {
						return false
					}
				} else if err != nil || v != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
