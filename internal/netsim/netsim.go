// Package netsim models the network path of the paper's evaluation
// setup: a client machine connected back-to-back over a dedicated
// 10 Gb/s NIC, driving the server hard enough to saturate it. Receiving
// a request costs a system call plus the kernel- and user-level buffer
// traffic whose cache footprint is exactly the pollution §2.2.1
// quantifies; end-to-end throughput is additionally capped by the link
// (which is what bounds the native face-verification server in Fig 10).
//
// Trust domain: untrusted — the NIC, kernel network stack and client
// live outside the enclave. Cycle-charged, hence deterministic.
//
//eleos:untrusted
//eleos:deterministic
package netsim

import (
	"fmt"
	"sync/atomic"

	"eleos/internal/cycles"
	"eleos/internal/sgx"
)

// LinkBitsPerSecond is the NIC speed of the paper's testbed.
const LinkBitsPerSecond = 10e9

// kernBufBytes is the size of the in-kernel memory a socket's receive
// path cycles through — NIC descriptor rings and skb slab pages whose
// allocation rotates across megabytes, so every call touches mostly-cold
// lines. These are the internal buffers that "compete with the
// application state in the LLC" (§2.2.1).
const kernBufBytes = 8 << 20

// Socket is one simulated connection endpoint on the server. It owns a
// kernel buffer region and a user-space staging buffer in untrusted
// memory (where an OCALL/RPC recv must deliver data for the enclave to
// pick up). A Socket is not safe for concurrent use; servers give each
// worker its own — and Recv/Send enforce that with a cheap owner guard
// that panics on overlapping calls instead of silently corrupting the
// rotating kernel-buffer state.
type Socket struct {
	plat     *sgx.Platform
	kernBuf  uint64
	userBuf  uint64
	userSize uint64
	rot      uint64 // rotating offset spreading kernel-buffer footprint

	// owner is the concurrent-misuse tripwire: thread ID + 1 of the
	// context currently inside Recv/Send, 0 when idle. A pure host-side
	// debug check — one CAS per call, no virtual cycles.
	owner atomic.Int64
}

// NewSocket allocates the socket's buffers in untrusted memory.
func NewSocket(plat *sgx.Platform, userBufBytes uint64) *Socket {
	return &Socket{
		plat:     plat,
		kernBuf:  plat.AllocHost(kernBufBytes),
		userBuf:  plat.AllocHost(userBufBytes),
		userSize: userBufBytes,
	}
}

// UserBuf returns the untrusted address where received payloads land
// (and from which responses are sent).
func (s *Socket) UserBuf() uint64 { return s.userBuf }

// Close releases the socket's buffers.
func (s *Socket) Close() {
	s.plat.FreeHost(s.kernBuf)
	s.plat.FreeHost(s.userBuf)
}

// Deliver places a request payload into the simulated NIC/kernel path,
// without charging anyone: the DMA engine and the remote client are not
// the server's CPU. Benchmarks call it to stage the next request.
//
// Marked platform for the trust-boundary analyzer: Deliver plays the
// NIC's DMA engine, hardware writing the wire bytes into the host
// receive ring, not the calling thread touching host memory.
//
//eleos:platform
func (s *Socket) Deliver(payload []byte) {
	if uint64(len(payload)) > s.userSize {
		panic("netsim: payload larger than socket buffer")
	}
	k := len(payload)
	if k > 64<<10 {
		k = 64 << 10
	}
	s.plat.Host.WriteAt(s.kernBuf, payload[:k])
	// Payload beyond the kernel window is conceptually still in flight;
	// Recv below charges for the full copy into the user buffer.
	s.plat.Host.WriteAt(s.userBuf, payload)
}

// Recv performs the kernel half of recv(2) in the given untrusted
// context: the system call, the network stack's passes over the payload
// (NIC ring -> skb -> socket buffer, modelled as two traversals of the
// kernel buffer plus fixed per-call stack state), and the copy_to_user
// into the staging buffer. These internal buffers are the cache
// pollution of §2.2.1: their footprint scales with the request size,
// and where they land — the enclave's ways or the RPC workers' CAT
// partition — is decided by the calling context. Like recv(2), it moves
// at most the user buffer's size and returns the byte count.
func (s *Socket) Recv(h *sgx.HostCtx, n int) int {
	defer s.unguard(s.guard(h))
	n = s.clamp(n)
	h.Syscall(func(c *sgx.HostCtx) {
		span := 4*n + 2048
		if span > kernBufBytes {
			span = kernBufBytes
		}
		if s.rot+uint64(span) > kernBufBytes {
			s.rot = 0
		}
		c.Touch(s.kernBuf+s.rot, span, true) // stack passes over skb state
		s.rot += uint64((span + 511) &^ 511)
		c.Touch(s.userBuf, n, true) // copy_to_user
	})
	return n
}

// Send performs the kernel half of send(2): copy_from_user plus the
// kernel buffer write-out. Like Recv, it moves at most the user
// buffer's size and returns the byte count.
func (s *Socket) Send(h *sgx.HostCtx, n int) int {
	defer s.unguard(s.guard(h))
	n = s.clamp(n)
	h.Syscall(func(c *sgx.HostCtx) {
		c.Touch(s.userBuf, n, false)
		k := n
		if k > kernBufBytes {
			k = kernBufBytes
		}
		c.Touch(s.kernBuf, k, true)
	})
	return n
}

// clamp bounds a transfer of n bytes to the user buffer.
func (s *Socket) clamp(n int) int {
	if uint64(n) > s.userSize {
		return int(s.userSize)
	}
	return n
}

// guard claims the socket for the calling context, panicking if another
// thread is already inside a Recv/Send — the loud failure mode for a
// multi-queue server submitting two chains over one socket. Returns the
// claimed token for unguard.
func (s *Socket) guard(h *sgx.HostCtx) int64 {
	id := int64(h.Thread().T.ID()) + 1
	if !s.owner.CompareAndSwap(0, id) {
		panic(fmt.Sprintf("netsim: concurrent Socket use: thread %d entered Recv/Send while thread %d was inside",
			id-1, s.owner.Load()-1))
	}
	return id
}

func (s *Socket) unguard(id int64) {
	if !s.owner.CompareAndSwap(id, 0) {
		panic("netsim: Socket owner guard corrupted")
	}
}

// WireSeconds returns the time the 10 GbE link needs to carry one
// request/response pair of the given total size, including per-packet
// framing overhead (≈38 bytes per 1500-byte MTU frame).
func WireSeconds(totalBytes int) float64 {
	frames := (totalBytes + 1499) / 1500
	onWire := float64(totalBytes + frames*38)
	return onWire * 8 / LinkBitsPerSecond
}

// LinkBoundThroughput returns the maximum requests/second the link
// admits for the given request+response size.
func LinkBoundThroughput(totalBytes int) float64 {
	return 1 / WireSeconds(totalBytes)
}

// CapToLink caps a CPU-derived throughput at the link bound.
func CapToLink(cpuThroughput float64, totalBytes int) float64 {
	if lb := LinkBoundThroughput(totalBytes); cpuThroughput > lb {
		return lb
	}
	return cpuThroughput
}

// CryptoCost charges the AES-GCM work of decrypting a request or
// encrypting a response of n bytes inside the enclave (the paper
// encrypts all traffic with AES-NI in CTR mode; we charge the same cost
// model used for sealing).
func CryptoCost(t *cycles.Thread, m *cycles.Model, n int) {
	t.Charge(m.AESCycles(n))
}
