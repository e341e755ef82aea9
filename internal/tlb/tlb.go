// Package tlb models the per-hardware-thread translation lookaside
// buffer of the simulated machine. The TLB is the vehicle for two of the
// indirect costs the Eleos paper quantifies: every enclave exit flushes
// the TLB (so pointer-chasing workloads pay page walks again after each
// system call, Fig 2b), and hardware EPC page eviction requires TLB
// shootdown IPIs to every core that may cache the mapping (Table 2).
// Exits are frequent, so a flush bumps an epoch instead of sweeping the
// entries: its host cost does not grow with the TLB's size.
//
// Cycle-charged and checked by eleoslint for determinism.
//
//eleos:deterministic
package tlb

import (
	"eleos/internal/cycles"
)

// A TLB caches virtual-page to physical-frame presence for a single
// simulated hardware thread. It is a set-associative tag array with
// round-robin replacement, sized like a Skylake STLB. A TLB is used by
// one goroutine at a time, like its sgx.Thread; Shootdown presence
// checks from the driver must be externally synchronized (the sgx
// package serializes them).
//
// Flushes cost O(1): the TLB keeps two flush epochs, one for host
// translations that every full flush bumps and one for enclave (EPC)
// translations that every full or EPC flush bumps. An entry records the
// epoch of its kind when it is inserted and is live only while that
// epoch is current, so a flush invalidates every entry of its kind by
// bumping a counter rather than sweeping the array. Round-robin
// replacement ignores liveness, so the victims are the same as with a
// sweep.
//
// A lookup checks its set's hint, the way of the set's last hit or
// fill, before it scans the ways. A page has at most one live entry,
// so the search order changes no outcome.
type TLB struct {
	model   *cycles.Model
	entries []entry // set i is entries[i*ways : (i+1)*ways]
	rr      []uint8 // per-set round-robin pointer
	hint    []uint8 // per-set way of the last hit or fill
	ways    int
	mask    uint64

	// stamp is the current stamp of each kind of translation, index 0
	// host and 1 EPC: the kind's flush epoch times two plus the kind.
	// Flush bumps both epochs, FlushEPC only the EPC one. At two per
	// flush, a uint64 does not wrap.
	stamp [2]uint64

	misses  uint64
	flushes uint64
}

// An entry holds the stamp of its kind current when it was inserted and
// is live while that stamp is still current: while stamp equals the
// TLB's stamp[stamp&1]. Epochs start at 1, so the zero entry and an
// invalidated one (stamp 0) are never live.
type entry struct {
	vpage uint64
	stamp uint64
}

// Config describes the TLB geometry.
type Config struct {
	// Entries is the total entry count (default 1536, Skylake STLB).
	Entries int
	// Ways is the associativity (default 12).
	Ways int
}

// New creates a TLB over the given cost model.
func New(m *cycles.Model, cfg Config) *TLB {
	if cfg.Entries == 0 {
		cfg.Entries = 1536
	}
	if cfg.Ways == 0 {
		cfg.Ways = 12
	}
	numSets := cfg.Entries / cfg.Ways
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		// Round down to a power of two so indexing stays a mask.
		p := 1
		for p*2 <= numSets {
			p *= 2
		}
		numSets = p
	}
	return &TLB{
		model:   m,
		entries: make([]entry, numSets*cfg.Ways),
		rr:      make([]uint8, numSets),
		hint:    make([]uint8, numSets),
		ways:    cfg.Ways,
		mask:    uint64(numSets - 1),
		stamp:   [2]uint64{2, 3},
	}
}

// set returns the ways of vpage's set.
func (t *TLB) set(vpage uint64) []entry {
	i := int(vpage&t.mask) * t.ways
	return t.entries[i : i+t.ways]
}

// live reports whether e holds vpage and has not been flushed or
// invalidated since it was inserted.
func (t *TLB) live(e *entry, vpage uint64) bool {
	return e.vpage == vpage && e.stamp == t.stamp[e.stamp&1]
}

// Access simulates the translation of vpage (a virtual page number, not
// a byte address) and charges th the page-walk cost on a miss. epc marks
// translations whose page walks touch encrypted memory, which cost more.
//
//eleos:hotpath budget=0
func (t *TLB) Access(th *cycles.Thread, vpage uint64, epc bool) (hit bool) {
	s := t.set(vpage)
	idx := vpage & t.mask
	if t.live(&s[t.hint[idx]], vpage) {
		return true
	}
	for i := range s {
		if t.live(&s[i], vpage) {
			t.hint[idx] = uint8(i)
			return true
		}
	}
	t.misses++
	kind := 0
	if epc {
		th.Charge(t.model.TLBMissEPC)
		kind = 1
	} else {
		th.Charge(t.model.TLBMiss)
	}
	way := t.rr[idx]
	t.rr[idx] = uint8((int(way) + 1) % len(s))
	t.hint[idx] = way
	s[way] = entry{vpage: vpage, stamp: t.stamp[kind]}
	return false
}

// Contains reports whether vpage is currently cached, without charging
// any cost. The SGX driver uses it to decide whether an eviction needs a
// shootdown IPI to this thread's core.
func (t *TLB) Contains(vpage uint64) bool {
	s := t.set(vpage)
	for i := range s {
		if t.live(&s[i], vpage) {
			return true
		}
	}
	return false
}

// Invalidate drops a single translation if present, as done by the
// receiver of a shootdown IPI.
func (t *TLB) Invalidate(vpage uint64) {
	s := t.set(vpage)
	for i := range s {
		if t.live(&s[i], vpage) {
			s[i].stamp = 0
		}
	}
}

// Flush invalidates every entry, as performed on enclave exit (EEXIT and
// AEX both flush enclave translations).
func (t *TLB) Flush() {
	t.flushes++
	t.stamp[0] += 2
	t.stamp[1] += 2
}

// FlushEPC invalidates only the enclave translations, modelling the
// architectural behaviour that exits flush enclave-private mappings
// while untrusted mappings may survive.
func (t *TLB) FlushEPC() {
	t.flushes++
	t.stamp[1] += 2
}

// Misses returns the page-walk count so far.
func (t *TLB) Misses() uint64 { return t.misses }

// Flushes returns the number of full or EPC flushes so far.
func (t *TLB) Flushes() uint64 { return t.flushes }

// ResetStats zeroes the counters without touching cached translations.
func (t *TLB) ResetStats() {
	t.misses = 0
	t.flushes = 0
}
