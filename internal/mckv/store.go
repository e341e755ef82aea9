package mckv

import (
	"errors"
	"fmt"
	"sync"

	"eleos/internal/kv"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// Store errors.
var (
	ErrNotFound = errors.New("mckv: key not found")
	ErrTooLarge = errors.New("mckv: item too large")
)

// Placement selects where item payloads (key+value+sizes) live.
type Placement int

// Placements of the sensitive item data.
const (
	PlaceEnclave    Placement = iota // enclave heap (Graphene-style baseline)
	PlaceSUVM                        // Eleos SUVM page cache
	PlaceSUVMDirect                  // Eleos SUVM sub-page direct access
	PlaceHost                        // untrusted memory (native baseline)
)

func (p Placement) String() string {
	switch p {
	case PlaceEnclave:
		return "epc"
	case PlaceSUVM:
		return "suvm"
	case PlaceSUVMDirect:
		return "suvm-direct"
	default:
		return "host"
	}
}

// Config describes a Store.
type Config struct {
	// MemLimitBytes bounds the item payload pool (memcached's -m).
	MemLimitBytes uint64
	// Buckets is the hash-table bucket count (power of two; default
	// scales to MemLimitBytes assuming ~1 KiB items).
	Buckets uint64
	// MaxItems bounds the metadata table (default: MemLimitBytes/96).
	MaxItems uint64
	// Placement locates item payloads.
	Placement Placement
	// Heap is required for the SUVM placements: a whole *suvm.Heap, or
	// one service's *suvm.Domain when the store is a co-resident tenant
	// of a multi-service enclave.
	Heap suvm.Allocator
}

// metadata record layout (untrusted memory, in the clear — §5.1 lists
// exactly these fields as security-insensitive):
//
//	 0 hashNext   (8)  1-based record index, 0 = nil
//	 8 lruNext    (8)
//	16 lruPrev    (8)
//	24 blobOff    (8)  chunk offset in the payload pool
//	32 class      (4)  slab class
//	36 flags      (4)
//	40 keyHash    (8)  chain-walk filter (derived from the key; the key
//	                   itself stays protected)
//	48 lastAccess (8)  logical clock for LRU bookkeeping
//	56 reserved   (8)
const recBytes = 64

// blob layout (protected memory): [keyLen u32][valLen u32][key][value].
// The sizes are the one piece of metadata the paper deems sensitive and
// keeps under SGX protection with the payload.
const blobHdr = 8

// Store is the memcached-like store. It is safe for concurrent use by
// multiple simulated threads; structure mutations are serialized by a
// global lock (the cost model charges the spin-lock, and virtual time
// is per-thread, so serialization does not distort cycle accounting).
type Store struct {
	cfg  Config
	plat *sgx.Platform

	mu sync.Mutex

	meta    *kv.Region // untrusted metadata records
	buckets *kv.Region // untrusted hash bucket heads
	nbkt    uint64

	pool  kv.Mem // payload pool: Region (host/enclave) or SUVMRegion
	slabs *slabAlloc

	freeRecs []uint64 // 1-based record indices
	maxItems uint64
	nextRec  uint64

	// Per-class LRU lists (head = most recent). Go-side heads index
	// into the metadata region; links live in the records themselves.
	lruHead, lruTail []uint64
	clock            uint64

	itemCount uint64
	evictions uint64

	buf []byte // scratch for blob headers and stored keys, guarded by mu
}

// NewStore builds a store; setup pays the (unmeasured) allocation costs.
func NewStore(plat *sgx.Platform, setup *sgx.Thread, cfg Config) (*Store, error) {
	if cfg.MemLimitBytes < slabBytes {
		return nil, fmt.Errorf("mckv: memory limit %d below one slab (%d)", cfg.MemLimitBytes, slabBytes)
	}
	if cfg.MaxItems == 0 {
		cfg.MaxItems = cfg.MemLimitBytes / minChunk
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 1
		for cfg.Buckets < cfg.MemLimitBytes/1024 {
			cfg.Buckets *= 2
		}
	}
	if cfg.Buckets&(cfg.Buckets-1) != 0 {
		return nil, fmt.Errorf("mckv: bucket count %d must be a power of two", cfg.Buckets)
	}
	s := &Store{
		cfg:      cfg,
		plat:     plat,
		meta:     kv.HostRegion(plat, cfg.MaxItems*recBytes),
		buckets:  kv.HostRegion(plat, cfg.Buckets*8),
		nbkt:     cfg.Buckets,
		slabs:    newSlabAlloc(cfg.MemLimitBytes),
		maxItems: cfg.MaxItems,
	}
	switch cfg.Placement {
	case PlaceHost:
		s.pool = kv.HostRegion(plat, cfg.MemLimitBytes)
	case PlaceEnclave:
		if setup.Enclave() == nil {
			return nil, fmt.Errorf("mckv: enclave placement requires an enclave thread")
		}
		s.pool = kv.EnclaveRegion(setup.Enclave(), cfg.MemLimitBytes)
	case PlaceSUVM, PlaceSUVMDirect:
		if cfg.Heap == nil {
			return nil, fmt.Errorf("mckv: SUVM placement requires a heap")
		}
		var p *suvm.SPtr
		var err error
		if cfg.Placement == PlaceSUVM {
			p, err = cfg.Heap.Malloc(cfg.MemLimitBytes)
		} else {
			p, err = cfg.Heap.MallocDirect(cfg.MemLimitBytes)
		}
		if err != nil {
			return nil, err
		}
		s.pool = kv.WrapSPtr(p)
	}
	s.lruHead = make([]uint64, len(s.slabs.classes))
	s.lruTail = make([]uint64, len(s.slabs.classes))
	return s, nil
}

// ItemCount returns the number of live items.
func (s *Store) ItemCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.itemCount
}

// Evictions returns the LRU eviction count.
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// BytesUsed returns live payload bytes (chunk granularity).
func (s *Store) BytesUsed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slabs.InUse()
}

// --- metadata field helpers (all via the simulated host memory) ---

func (s *Store) recOff(idx uint64) uint64 { return (idx - 1) * recBytes }

func (s *Store) recRead(th *sgx.Thread, idx, field uint64) uint64 {
	var b [8]byte
	if err := s.meta.Read(th, s.recOff(idx)+field, b[:]); err != nil {
		panic(fmt.Sprintf("mckv: metadata read: %v", err))
	}
	return leU64(b[:])
}

func (s *Store) recWrite(th *sgx.Thread, idx, field, v uint64) {
	var b [8]byte
	putLeU64(b[:], v)
	if err := s.meta.Write(th, s.recOff(idx)+field, b[:]); err != nil {
		panic(fmt.Sprintf("mckv: metadata write: %v", err))
	}
}

func (s *Store) bucketHead(th *sgx.Thread, bkt uint64) uint64 {
	var b [8]byte
	if err := s.buckets.Read(th, bkt*8, b[:]); err != nil {
		panic(fmt.Sprintf("mckv: bucket read: %v", err))
	}
	return leU64(b[:])
}

func (s *Store) setBucketHead(th *sgx.Thread, bkt, idx uint64) {
	var b [8]byte
	putLeU64(b[:], idx)
	if err := s.buckets.Write(th, bkt*8, b[:]); err != nil {
		panic(fmt.Sprintf("mckv: bucket write: %v", err))
	}
}

// --- LRU (caller holds s.mu) ---

func (s *Store) lruUnlink(th *sgx.Thread, idx uint64, class int) {
	next := s.recRead(th, idx, 8)
	prev := s.recRead(th, idx, 16)
	if prev != 0 {
		s.recWrite(th, prev, 8, next)
	} else {
		s.lruHead[class] = next
	}
	if next != 0 {
		s.recWrite(th, next, 16, prev)
	} else {
		s.lruTail[class] = prev
	}
}

func (s *Store) lruPushHead(th *sgx.Thread, idx uint64, class int) {
	head := s.lruHead[class]
	s.recWrite(th, idx, 8, head)
	s.recWrite(th, idx, 16, 0)
	if head != 0 {
		s.recWrite(th, head, 16, idx)
	} else {
		s.lruTail[class] = idx
	}
	s.lruHead[class] = idx
	s.clock++
	s.recWrite(th, idx, 48, s.clock)
}

// --- record pool (caller holds s.mu) ---

func (s *Store) allocRec() (uint64, error) {
	if n := len(s.freeRecs); n > 0 {
		idx := s.freeRecs[n-1]
		s.freeRecs = s.freeRecs[:n-1]
		return idx, nil
	}
	if s.nextRec >= s.maxItems {
		return 0, ErrNoMem
	}
	s.nextRec++
	return s.nextRec, nil
}

// --- core operations ---

// findLocked walks the hash chain for key, returning (recIdx, prevIdx).
// The keyHash filter avoids touching protected memory for non-matching
// chain entries; a match is confirmed against the real key bytes in the
// protected pool.
func (s *Store) findLocked(th *sgx.Thread, key []byte, hash uint64) (uint64, uint64, error) {
	bkt := hash & (s.nbkt - 1)
	prev := uint64(0)
	idx := s.bucketHead(th, bkt)
	for idx != 0 {
		if s.recRead(th, idx, 40) == hash {
			blobOff := s.recRead(th, idx, 24)
			hdr := s.scratch(blobHdr)
			if err := s.pool.Read(th, blobOff, hdr); err != nil {
				return 0, 0, err
			}
			if int(leU32(hdr[0:4])) == len(key) {
				stored := s.scratch(len(key))
				if err := s.pool.Read(th, blobOff+blobHdr, stored); err != nil {
					return 0, 0, err
				}
				if bytesEq(stored, key) {
					return idx, prev, nil
				}
			}
		}
		prev = idx
		idx = s.recRead(th, idx, 0)
	}
	return 0, prev, nil
}

// scratch returns n bytes of the store's scratch buffer, which the
// next call reuses. The caller holds s.mu.
func (s *Store) scratch(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// Set inserts or replaces an item, evicting LRU items on memory
// pressure exactly as memcached does.
func (s *Store) Set(th *sgx.Thread, key, val []byte) error {
	need := uint64(blobHdr + len(key) + len(val))
	if need > maxItemSize {
		return ErrTooLarge
	}
	hash := hashKey(key)
	th.T.Charge(s.plat.Model.SpinLock)
	s.mu.Lock()
	defer s.mu.Unlock()

	if idx, _, err := s.findLocked(th, key, hash); err != nil {
		return err
	} else if idx != 0 {
		s.removeLocked(th, idx, hash, false)
	}

	ci, err := s.slabs.classFor(need)
	if err != nil {
		return ErrTooLarge
	}
	var blobOff uint64
	for {
		blobOff, err = s.slabs.alloc(ci)
		if err == nil {
			break
		}
		if !s.evictLRULocked(th, ci) {
			return ErrNoMem
		}
	}
	idx, err := s.allocRec()
	if err != nil {
		s.slabs.release(ci, blobOff)
		return err
	}

	// Payload into protected memory: sizes + key + value.
	hdr := s.scratch(blobHdr)
	putLeU32(hdr[0:4], uint32(len(key)))
	putLeU32(hdr[4:8], uint32(len(val)))
	if err := s.pool.Write(th, blobOff, hdr); err != nil {
		return err
	}
	if err := s.pool.Write(th, blobOff+blobHdr, key); err != nil {
		return err
	}
	if err := s.pool.Write(th, blobOff+blobHdr+uint64(len(key)), val); err != nil {
		return err
	}

	// Metadata in the clear.
	bkt := hash & (s.nbkt - 1)
	s.recWrite(th, idx, 0, s.bucketHead(th, bkt))
	s.setBucketHead(th, bkt, idx)
	s.recWrite(th, idx, 24, blobOff)
	s.recWrite(th, idx, 32, uint64(ci))
	s.recWrite(th, idx, 40, hash)
	s.lruPushHead(th, idx, ci)
	s.itemCount++
	return nil
}

// Get copies the item's value into valBuf and returns its length,
// bumping the item's LRU position.
func (s *Store) Get(th *sgx.Thread, key []byte, valBuf []byte) (int, error) {
	hash := hashKey(key)
	th.T.Charge(s.plat.Model.SpinLock)
	s.mu.Lock()
	defer s.mu.Unlock()

	idx, _, err := s.findLocked(th, key, hash)
	if err != nil {
		return 0, err
	}
	if idx == 0 {
		return 0, ErrNotFound
	}
	blobOff := s.recRead(th, idx, 24)
	hdr := s.scratch(blobHdr)
	if err := s.pool.Read(th, blobOff, hdr); err != nil {
		return 0, err
	}
	klen, vlen := int(leU32(hdr[0:4])), int(leU32(hdr[4:8]))
	if vlen > len(valBuf) {
		return 0, fmt.Errorf("mckv: value of %d bytes exceeds buffer", vlen)
	}
	if err := s.pool.Read(th, blobOff+blobHdr+uint64(klen), valBuf[:vlen]); err != nil {
		return 0, err
	}
	ci := int(s.recRead(th, idx, 32))
	s.lruUnlink(th, idx, ci)
	s.lruPushHead(th, idx, ci)
	return vlen, nil
}

// Delete removes an item.
func (s *Store) Delete(th *sgx.Thread, key []byte) error {
	hash := hashKey(key)
	th.T.Charge(s.plat.Model.SpinLock)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, _, err := s.findLocked(th, key, hash)
	if err != nil {
		return err
	}
	if idx == 0 {
		return ErrNotFound
	}
	s.removeLocked(th, idx, hash, false)
	return nil
}

// removeLocked unlinks a record from its hash chain and LRU list and
// releases its blob and record.
func (s *Store) removeLocked(th *sgx.Thread, idx, hash uint64, countEvict bool) {
	bkt := hash & (s.nbkt - 1)
	// Unlink from the chain.
	cur := s.bucketHead(th, bkt)
	prev := uint64(0)
	for cur != 0 && cur != idx {
		prev = cur
		cur = s.recRead(th, cur, 0)
	}
	if cur == idx {
		next := s.recRead(th, idx, 0)
		if prev == 0 {
			s.setBucketHead(th, bkt, next)
		} else {
			s.recWrite(th, prev, 0, next)
		}
	}
	ci := int(s.recRead(th, idx, 32))
	s.lruUnlink(th, idx, ci)
	s.slabs.release(ci, s.recRead(th, idx, 24))
	s.freeRecs = append(s.freeRecs, idx)
	s.itemCount--
	if countEvict {
		s.evictions++
	}
}

// evictLRULocked evicts the least-recently-used item of class ci (or,
// failing that, of any class) to relieve memory pressure.
func (s *Store) evictLRULocked(th *sgx.Thread, ci int) bool {
	victim := s.lruTail[ci]
	if victim == 0 {
		for c := range s.lruTail {
			if s.lruTail[c] != 0 {
				victim = s.lruTail[c]
				break
			}
		}
	}
	if victim == 0 {
		return false
	}
	s.removeLocked(th, victim, s.recRead(th, victim, 40), true)
	return true
}

// --- small helpers ---

func hashKey(key []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
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
