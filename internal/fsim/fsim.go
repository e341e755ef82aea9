// Package fsim simulates the file-I/O system-call surface (open, pread,
// pwrite, fsync, close) of the host OS, with the same cost structure as
// netsim's sockets: each call is a syscall plus kernel page-cache
// traffic in untrusted memory. It exists because Eleos's exit-less RPC
// targets OS services generally — memcached under Graphene issues many
// file and event syscalls, not just recv/send — and because it enables
// storage-backed enclave applications (see examples/seclog).
//
// File contents are real bytes in the simulated untrusted memory: what
// an enclave writes through fsim it can read back, and the host can
// inspect (which is why enclaves encrypt before writing — the seclog
// example shows the pattern).
//
// Trust domain: untrusted. fsim is the host side of the file service —
// the code an RPC worker runs on behalf of the enclave. It operates on
// host memory via *sgx.HostCtx and must never touch EPC contents or
// call enclave code (enforced by eleoslint's trustboundary analyzer).
//
//eleos:untrusted
package fsim

import (
	"errors"
	"fmt"
	"sync"

	"eleos/internal/sgx"
)

// I/O errors.
var (
	ErrNotExist = errors.New("fsim: file does not exist")
	ErrBadFD    = errors.New("fsim: bad file descriptor")
	ErrTooLarge = errors.New("fsim: file size limit exceeded")
)

// MaxFileBytes bounds a single file (1 GiB).
const MaxFileBytes = 1 << 30

// pageCacheBytes is the kernel page-cache footprint a file operation
// touches per call, beyond the payload itself.
const pageCacheBytes = 2048

// FS is the simulated filesystem: a name space of files whose bytes
// live in untrusted host memory, fronted by a syscall layer. Safe for
// concurrent use.
type FS struct {
	plat *sgx.Platform
	// mu guards the namespace and descriptor tables. The grow path in
	// PWrite allocates from the host arena while holding it, so it ranks
	// below hostmem.Arena.mu (140).
	//eleos:lockorder 100
	mu     sync.Mutex
	byName map[string]*file
	fds    map[int]*fd
	nextFD int
	// kernBuf models the kernel page cache's rotating footprint; rot
	// (guarded by mu) is the next window's offset into it.
	kernBuf uint64
	rot     uint64

	syscalls uint64
}

type file struct {
	name string
	base uint64 // host address of the data region
	cap  uint64
	size uint64
}

type fd struct {
	f *file
}

// NewFS creates a filesystem on the platform.
func NewFS(plat *sgx.Platform) *FS {
	return &FS{
		plat:    plat,
		byName:  make(map[string]*file),
		fds:     make(map[int]*fd),
		nextFD:  3,
		kernBuf: plat.AllocHost(4 << 20),
	}
}

// Syscalls returns the number of system calls served.
func (s *FS) Syscalls() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syscalls
}

// kernSlot claims the rotating kernel page-cache window one call moving
// n payload bytes touches, returning its address and length. The caller
// holds s.mu, so calls served concurrently by several RPC workers each
// claim their own window.
func (s *FS) kernSlot(n int) (uint64, int) {
	span := n + pageCacheBytes
	if span > 4<<20 {
		span = 4 << 20
	}
	if s.rot+uint64(span) > 4<<20 {
		s.rot = 0
	}
	addr := s.kernBuf + s.rot
	s.rot += uint64((span + 511) &^ 511)
	return addr, span
}

// Open opens (creating if needed) a file and returns a descriptor.
// Must be called from an untrusted context (native, OCALL target, or
// RPC worker) — exactly like a real syscall.
func (s *FS) Open(h *sgx.HostCtx, name string) (int, error) {
	var fdnum int
	h.Syscall(func(c *sgx.HostCtx) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.syscalls++
		f := s.byName[name]
		if f == nil {
			f = &file{name: name, base: s.plat.AllocHost(1 << 20), cap: 1 << 20}
			s.byName[name] = f
		}
		fdnum = s.nextFD
		s.nextFD++
		s.fds[fdnum] = &fd{f: f}
	})
	return fdnum, nil
}

// Close releases a descriptor.
func (s *FS) Close(h *sgx.HostCtx, fdnum int) error {
	var err error
	h.Syscall(func(c *sgx.HostCtx) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.syscalls++
		if _, ok := s.fds[fdnum]; !ok {
			err = ErrBadFD
			return
		}
		delete(s.fds, fdnum)
	})
	return err
}

// PWrite writes data at the given offset, growing the file as needed.
func (s *FS) PWrite(h *sgx.HostCtx, fdnum int, off uint64, data []byte) (int, error) {
	var err error
	h.Syscall(func(c *sgx.HostCtx) {
		s.mu.Lock()
		d, ok := s.fds[fdnum]
		s.syscalls++
		if !ok {
			s.mu.Unlock()
			err = ErrBadFD
			return
		}
		f := d.f
		end := off + uint64(len(data))
		if end > MaxFileBytes {
			s.mu.Unlock()
			err = ErrTooLarge
			return
		}
		for end > f.cap {
			// Grow by reallocating double (the data region is host
			// memory; a real FS would chain extents).
			newBase := s.plat.AllocHost(f.cap * 2)
			tmp := make([]byte, f.size)
			s.plat.Host.ReadAt(f.base, tmp)
			s.plat.Host.WriteAt(newBase, tmp)
			s.plat.FreeHost(f.base)
			f.base, f.cap = newBase, f.cap*2
		}
		if end > f.size {
			f.size = end
		}
		base := f.base
		kaddr, kspan := s.kernSlot(len(data))
		s.mu.Unlock()

		c.Touch(kaddr, kspan, true)
		c.Write(base+off, data)
	})
	if err != nil {
		return 0, err
	}
	return len(data), nil
}

// PRead reads up to len(buf) bytes at the given offset. Returns the
// byte count (0 at or beyond EOF).
func (s *FS) PRead(h *sgx.HostCtx, fdnum int, off uint64, buf []byte) (int, error) {
	var err error
	n := 0
	h.Syscall(func(c *sgx.HostCtx) {
		s.mu.Lock()
		d, ok := s.fds[fdnum]
		s.syscalls++
		if !ok {
			s.mu.Unlock()
			err = ErrBadFD
			return
		}
		f := d.f
		if off >= f.size {
			s.mu.Unlock()
			return
		}
		n = len(buf)
		if uint64(n) > f.size-off {
			n = int(f.size - off)
		}
		base := f.base
		kaddr, kspan := s.kernSlot(n)
		s.mu.Unlock()

		c.Touch(kaddr, kspan, false)
		c.Read(base+off, buf[:n])
	})
	return n, err
}

// Fsync models the flush syscall: the kernel walks the file's dirty
// pages (charged as a sweep proportional to file size, capped).
func (s *FS) Fsync(h *sgx.HostCtx, fdnum int) error {
	var err error
	h.Syscall(func(c *sgx.HostCtx) {
		s.mu.Lock()
		d, ok := s.fds[fdnum]
		s.syscalls++
		if !ok {
			s.mu.Unlock()
			err = ErrBadFD
			return
		}
		size, base := d.f.size, d.f.base
		s.mu.Unlock()
		if size > 256<<10 {
			size = 256 << 10
		}
		c.Touch(base, int(size), false)
	})
	return err
}

// Size returns a file's current length.
func (s *FS) Size(name string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.byName[name]
	if f == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f.size, nil
}

// RawRead lets tests (and adversaries) inspect file bytes directly from
// host memory, without any syscall accounting.
func (s *FS) RawRead(name string, off uint64, buf []byte) error {
	s.mu.Lock()
	f := s.byName[name]
	s.mu.Unlock()
	if f == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	s.plat.Host.ReadAt(f.base+off, buf)
	return nil
}
