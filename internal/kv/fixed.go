package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"eleos/internal/sgx"
)

// Table errors.
var (
	ErrFull     = errors.New("kv: table full")
	ErrNotFound = errors.New("kv: key not found")
	ErrBadKey   = errors.New("kv: zero key is reserved")
)

// Layout selects the collision strategy of a FixedTable.
type Layout int

// The two layouts Fig 2b contrasts.
const (
	OpenAddressing Layout = iota // linear probing; no pointer chasing
	Chaining                     // per-bucket linked lists; pointer chasing
)

func (l Layout) String() string {
	if l == Chaining {
		return "chaining"
	}
	return "open-addressing"
}

// FixedTable is the parameter-server store: a hash table of 8-byte keys
// and 8-byte values laid out in a Mem region. Keys must be non-zero
// (zero marks empty slots). The table is not internally synchronized;
// the parameter server shards or locks above it, as memcached does.
//
// Open-addressing layout:  [slot0 key|val][slot1 key|val]...
// Chaining layout:         [bucket heads][node key|val|next ...]
type FixedTable struct {
	mem     Mem
	layout  Layout
	buckets uint64 // bucket or slot count (power of two)
	// chaining only:
	nodeBase  uint64
	nodeCap   uint64
	nodeCount uint64
}

const (
	slotBytes = 16 // key + value
	nodeBytes = 24 // key + value + next
)

// FixedTableMemSize returns the Mem bytes needed for a table of the
// given layout holding capacity entries with the given bucket count.
func FixedTableMemSize(layout Layout, buckets, capacity uint64) uint64 {
	if layout == Chaining {
		return buckets*8 + capacity*nodeBytes
	}
	return buckets * slotBytes
}

// NewFixedTable initializes a table in mem. For OpenAddressing, buckets
// is the slot count and also the capacity bound; for Chaining, capacity
// nodes follow the bucket array. buckets must be a power of two. The
// region is assumed zeroed (all implementations provide zeroed memory).
func NewFixedTable(mem Mem, layout Layout, buckets, capacity uint64) (*FixedTable, error) {
	if buckets == 0 || buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("kv: bucket count %d must be a power of two", buckets)
	}
	need := FixedTableMemSize(layout, buckets, capacity)
	if mem.Size() < need {
		return nil, fmt.Errorf("kv: region of %d bytes cannot hold table needing %d", mem.Size(), need)
	}
	t := &FixedTable{mem: mem, layout: layout, buckets: buckets}
	if layout == Chaining {
		t.nodeBase = buckets * 8
		t.nodeCap = capacity
	}
	return t, nil
}

// Layout returns the table's collision strategy.
func (t *FixedTable) Layout() Layout { return t.layout }

// Len returns the number of stored entries (chaining only tracks this
// exactly; open addressing scans are avoided, so it returns nodeCount
// which both layouts maintain).
func (t *FixedTable) Len() uint64 { return t.nodeCount }

// Get returns the value for key.
func (t *FixedTable) Get(th *sgx.Thread, key uint64) (uint64, error) {
	if key == 0 {
		return 0, ErrBadKey
	}
	if t.layout == Chaining {
		return t.chainGet(th, key)
	}
	return t.openGet(th, key)
}

// Put inserts or updates key.
func (t *FixedTable) Put(th *sgx.Thread, key, val uint64) error {
	if key == 0 {
		return ErrBadKey
	}
	if t.layout == Chaining {
		return t.chainPut(th, key, val)
	}
	return t.openPut(th, key, val)
}

// Add increments key's value in place (the parameter-server update),
// inserting the delta if absent.
func (t *FixedTable) Add(th *sgx.Thread, key, delta uint64) error {
	if key == 0 {
		return ErrBadKey
	}
	if t.layout == Chaining {
		return t.chainAdd(th, key, delta)
	}
	return t.openAdd(th, key, delta)
}

// --- open addressing ---

func (t *FixedTable) openProbe(th *sgx.Thread, key uint64) (slotOff uint64, present bool, err error) {
	mask := t.buckets - 1
	idx := hash64(key) & mask
	for i := uint64(0); i < t.buckets; i++ {
		off := ((idx + i) & mask) * slotBytes
		k, err := readU64(th, t.mem, off)
		if err != nil {
			return 0, false, err
		}
		if k == key {
			return off, true, nil
		}
		if k == 0 {
			return off, false, nil
		}
	}
	return 0, false, ErrFull
}

func (t *FixedTable) openGet(th *sgx.Thread, key uint64) (uint64, error) {
	off, ok, err := t.openProbe(th, key)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNotFound
	}
	return readU64(th, t.mem, off+8)
}

func (t *FixedTable) openPut(th *sgx.Thread, key, val uint64) error {
	off, ok, err := t.openProbe(th, key)
	if err != nil {
		return err
	}
	if !ok {
		if err := writeU64(th, t.mem, off, key); err != nil {
			return err
		}
		t.nodeCount++
	}
	return writeU64(th, t.mem, off+8, val)
}

func (t *FixedTable) openAdd(th *sgx.Thread, key, delta uint64) error {
	off, ok, err := t.openProbe(th, key)
	if err != nil {
		return err
	}
	if !ok {
		if err := writeU64(th, t.mem, off, key); err != nil {
			return err
		}
		t.nodeCount++
		return writeU64(th, t.mem, off+8, delta)
	}
	v, err := readU64(th, t.mem, off+8)
	if err != nil {
		return err
	}
	return writeU64(th, t.mem, off+8, v+delta)
}

// --- chaining ---

func (t *FixedTable) bucketOff(key uint64) uint64 {
	return (hash64(key) & (t.buckets - 1)) * 8
}

func (t *FixedTable) nodeOff(idx uint64) uint64 {
	return t.nodeBase + (idx-1)*nodeBytes // indices are 1-based; 0 = nil
}

// chainFind walks the bucket's list. Returns the node index (1-based)
// or 0 if absent.
func (t *FixedTable) chainFind(th *sgx.Thread, key uint64) (uint64, error) {
	idx, err := readU64(th, t.mem, t.bucketOff(key))
	if err != nil {
		return 0, err
	}
	for idx != 0 {
		off := t.nodeOff(idx)
		k, err := readU64(th, t.mem, off)
		if err != nil {
			return 0, err
		}
		if k == key {
			return idx, nil
		}
		if idx, err = readU64(th, t.mem, off+16); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func (t *FixedTable) chainGet(th *sgx.Thread, key uint64) (uint64, error) {
	idx, err := t.chainFind(th, key)
	if err != nil {
		return 0, err
	}
	if idx == 0 {
		return 0, ErrNotFound
	}
	return readU64(th, t.mem, t.nodeOff(idx)+8)
}

func (t *FixedTable) chainInsert(th *sgx.Thread, key, val uint64) error {
	if t.nodeCount >= t.nodeCap {
		return ErrFull
	}
	t.nodeCount++
	idx := t.nodeCount
	off := t.nodeOff(idx)
	head, err := readU64(th, t.mem, t.bucketOff(key))
	if err != nil {
		return err
	}
	if err := writeU64(th, t.mem, off, key); err != nil {
		return err
	}
	if err := writeU64(th, t.mem, off+8, val); err != nil {
		return err
	}
	if err := writeU64(th, t.mem, off+16, head); err != nil {
		return err
	}
	return writeU64(th, t.mem, t.bucketOff(key), idx)
}

func (t *FixedTable) chainPut(th *sgx.Thread, key, val uint64) error {
	idx, err := t.chainFind(th, key)
	if err != nil {
		return err
	}
	if idx == 0 {
		return t.chainInsert(th, key, val)
	}
	return writeU64(th, t.mem, t.nodeOff(idx)+8, val)
}

func (t *FixedTable) chainAdd(th *sgx.Thread, key, delta uint64) error {
	idx, err := t.chainFind(th, key)
	if err != nil {
		return err
	}
	if idx == 0 {
		return t.chainInsert(th, key, delta)
	}
	off := t.nodeOff(idx) + 8
	v, err := readU64(th, t.mem, off)
	if err != nil {
		return err
	}
	return writeU64(th, t.mem, off, v+delta)
}

// loadChunk is the size of the writes Load streams into the region.
const loadChunk = 1 << 20

// Load fills a new, empty table with keys 1..entries, each mapping to
// value=key: the bytes entries sequential Put calls would leave,
// written in offset order loadChunk bytes at a time. Set-up uses it
// because inserting hundreds of megabytes element by element through
// the simulated memory system costs minutes of host time and changes
// no measurement.
func (t *FixedTable) Load(th *sgx.Thread, entries uint64) error {
	if entries > math.MaxUint32 {
		return fmt.Errorf("kv: bulk load of %d entries exceeds %d", entries, uint64(math.MaxUint32))
	}
	word, err := t.loadWords(entries)
	if err != nil {
		return err
	}
	size := FixedTableMemSize(t.layout, t.buckets, entries)
	buf := make([]byte, min(size, loadChunk))
	for off := uint64(0); off < size; off += loadChunk {
		chunk := buf[:min(size-off, loadChunk)]
		for i := 0; i < len(chunk); i += 8 {
			binary.LittleEndian.PutUint64(chunk[i:], word((off+uint64(i))/8))
		}
		if err := t.mem.Write(th, off, chunk); err != nil {
			return err
		}
	}
	t.nodeCount = entries
	return nil
}

// loadWords inserts keys 1..entries into a compact host-side model of
// the table and returns the table's content as a function of the
// 8-byte word index. Every field of both layouts is one aligned word.
func (t *FixedTable) loadWords(entries uint64) (func(w uint64) uint64, error) {
	mask := t.buckets - 1
	if t.layout == OpenAddressing {
		if entries > t.buckets {
			return nil, ErrFull
		}
		// First-come linear probing, as openPut does; a slot holds its key.
		slots := make([]uint32, t.buckets)
		for key := uint64(1); key <= entries; key++ {
			idx := hash64(key) & mask
			for slots[idx] != 0 {
				idx = (idx + 1) & mask
			}
			slots[idx] = uint32(key)
		}
		return func(w uint64) uint64 { return uint64(slots[w/2]) }, nil
	}
	if entries > t.nodeCap {
		return nil, ErrFull
	}
	// Node n holds key n (insertion order); chainInsert pushes at the head.
	heads := make([]uint32, t.buckets)
	next := make([]uint32, entries+1)
	for key := uint64(1); key <= entries; key++ {
		b := hash64(key) & mask
		next[key] = heads[b]
		heads[b] = uint32(key)
	}
	return func(w uint64) uint64 {
		if w < t.buckets {
			return uint64(heads[w])
		}
		n, field := (w-t.buckets)/3+1, (w-t.buckets)%3
		if field == 2 {
			return uint64(next[n])
		}
		return n
	}, nil
}
