package suvm

import "sync"

// This file holds the frame-supply side of the fault pipeline: the
// sharded free-frame pool takeFrame drains, and the eviction policies
// behind the evictor interface. Each policy owns its cursor/RNG state
// under its own small lock, so victim selection by one thread never
// blocks another thread's page-in — only two pickers racing each other
// serialize, briefly, on the policy lock.

// freeShards is the number of independently locked free-frame stacks.
const freeShards = 8

// framePool is the EPC++ free list, sharded so that concurrent faults
// refilling from and returning to the pool do not serialize. Frames are
// homed to shards by contiguous index ranges and each shard is a stack
// kept in descending order at init, so a single thread draining the
// pool receives frames 0, 1, 2, … — the exact order the pre-pipeline
// global stack produced, which matters because the frame index picks
// the frame's virtual address and with it its LLC set behaviour.
//
// That order equivalence holds only for the initial drain (and thus for
// every swapper-less run, which never puts a frame back: takeFrame
// consumes victims directly). Once the swapper's ReclaimFreePool
// returns frames to their *home* shards, take's low-to-high shard scan
// hands them out in a different order than the old global stack's pure
// LIFO would have. Runs that mix faults with reclaim ticks are still
// deterministic — pinned by the swapper-interleaved golden fingerprint
// — but against a pipeline-era baseline, not the pre-refactor seed.
type framePool struct {
	start int32 // first frame index homed to shard 0 (0 for the root pool)
	per   int   // frames per shard (last shard may be short)

	shards [freeShards]freeShard
}

type freeShard struct {
	//eleos:lockorder 50
	mu     sync.Mutex
	frames []int32
}

// newFramePool builds the free pool for the frame range
// [start, start+count). The root pool covers [0, maxFrames); a carved
// domain's pool covers its own contiguous slice of the heap's frames,
// with the same descending-init drain-order guarantee relative to its
// range start.
func newFramePool(start, count int) *framePool {
	p := &framePool{start: int32(start), per: (count + freeShards - 1) / freeShards}
	for i := start + count - 1; i >= start; i-- {
		s := &p.shards[p.home(int32(i))]
		s.frames = append(s.frames, int32(i))
	}
	return p
}

func (p *framePool) home(f int32) int {
	h := int(f-p.start) / p.per
	if h >= freeShards {
		h = freeShards - 1
	}
	return h
}

// take pops a free frame. The first sweep skips contended shards so a
// page-in never waits behind another thread's pool operation; the
// second sweep locks, so a frame present in the pool is always found.
func (p *framePool) take() (int32, bool) {
	for i := range p.shards {
		s := &p.shards[i]
		if !s.mu.TryLock() {
			continue
		}
		if n := len(s.frames); n > 0 {
			f := s.frames[n-1]
			s.frames = s.frames[:n-1]
			s.mu.Unlock()
			return f, true
		}
		s.mu.Unlock()
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		if n := len(s.frames); n > 0 {
			f := s.frames[n-1]
			s.frames = s.frames[:n-1]
			s.mu.Unlock()
			return f, true
		}
		s.mu.Unlock()
	}
	return -1, false
}

// put returns a frame to its home shard.
func (p *framePool) put(f int32) {
	s := &p.shards[p.home(f)]
	s.mu.Lock()
	s.frames = append(s.frames, f)
	s.mu.Unlock()
}

// size reports the number of pooled frames (racy by nature; used for
// the swapper's refill target).
func (p *framePool) size() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// filter drops every pooled frame for which keep returns false
// (ballooning removes disabled frames this way). Called only from the
// exclusive resize epoch.
func (p *framePool) filter(keep func(int32) bool) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		kept := s.frames[:0]
		for _, f := range s.frames {
			if keep(f) {
				kept = append(kept, f)
			}
		}
		s.frames = kept
		s.mu.Unlock()
	}
}

// evictor selects eviction victims within one domain's active frame
// range [d.start, d.start+d.active), so evictors never sweep disabled
// frames. pick returns a
// candidate frame with refcnt observed zero, or -1 when nothing is
// evictable; the caller (evictFrame) re-verifies under the page's
// locks, so a stale pick costs a retry, never correctness.
// Implementations are safe for concurrent use and record scan-length
// stats on the domain they scan for.
type evictor interface {
	policy() EvictionPolicy
	pick(d *Domain) int32
}

func newEvictor(pol EvictionPolicy, seed uint64) evictor {
	switch pol {
	case PolicyFIFO:
		return &fifoEvictor{}
	case PolicyRandom:
		return &randomEvictor{rng: seed}
	default:
		return &clockEvictor{}
	}
}

// evictable reports whether frame f is a victim candidate right now.
func evictable(fm *frameMeta) bool {
	return !fm.disabled && fm.bsPage.Load() != noBSPage && fm.refcnt.Load() == 0
}

// clockEvictor is second-chance clock: skip frames whose reference bit
// is set (clearing it), take the first cold unpinned frame.
type clockEvictor struct {
	//eleos:lockorder 40
	mu   sync.Mutex
	hand int
}

func (c *clockEvictor) policy() EvictionPolicy { return PolicyClock }

func (c *clockEvictor) pick(d *Domain) int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	frames, start, active := d.h.frames, d.start, d.active
	scanned := 0
	defer func() { d.stats.noteScan(scanned) }()
	for i := 0; i < 2*active; i++ {
		c.hand = (c.hand + 1) % active
		scanned++
		fm := &frames[start+c.hand]
		if !evictable(fm) {
			continue
		}
		if fm.accessed.Swap(false) {
			continue
		}
		return int32(start + c.hand)
	}
	// Second chance exhausted: take the first unpinned frame.
	for i := 0; i < active; i++ {
		c.hand = (c.hand + 1) % active
		scanned++
		if evictable(&frames[start+c.hand]) {
			return int32(start + c.hand)
		}
	}
	return -1
}

// fifoEvictor cycles through frames in index order.
type fifoEvictor struct {
	//eleos:lockorder 40
	mu   sync.Mutex
	hand int
}

func (f *fifoEvictor) policy() EvictionPolicy { return PolicyFIFO }

func (f *fifoEvictor) pick(d *Domain) int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	frames, start, active := d.h.frames, d.start, d.active
	scanned := 0
	defer func() { d.stats.noteScan(scanned) }()
	for i := 0; i < active; i++ {
		f.hand = (f.hand + 1) % active
		scanned++
		if evictable(&frames[start+f.hand]) {
			return int32(start + f.hand)
		}
	}
	return -1
}

// randomEvictor probes xorshift-random frames.
type randomEvictor struct {
	//eleos:lockorder 40
	mu  sync.Mutex
	rng uint64
}

func (r *randomEvictor) policy() EvictionPolicy { return PolicyRandom }

func (r *randomEvictor) pick(d *Domain) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	frames, start, active := d.h.frames, d.start, d.active
	scanned := 0
	defer func() { d.stats.noteScan(scanned) }()
	for i := 0; i < 4*active; i++ {
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 7
		r.rng ^= r.rng << 17
		f := start + int(r.rng%uint64(active))
		scanned++
		if evictable(&frames[f]) {
			return int32(f)
		}
	}
	return -1
}
