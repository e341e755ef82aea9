package exitio

import (
	"eleos/internal/fsim"
	"eleos/internal/netsim"
	"eleos/internal/sgx"
)

// Kind identifies an op type in completions.
type Kind uint8

// Op kinds.
const (
	OpRecv Kind = iota
	OpSend
	OpOpen
	OpPread
	OpPwrite
	OpFsync
	OpClose
)

func (k Kind) String() string {
	switch k {
	case OpRecv:
		return "recv"
	case OpSend:
		return "send"
	case OpOpen:
		return "open"
	case OpPread:
		return "pread"
	case OpPwrite:
		return "pwrite"
	case OpFsync:
		return "fsync"
	case OpClose:
		return "close"
	}
	return "?"
}

// Op is one exit-less I/O request descriptor: what to do, on which
// kernel object, with which buffers — described as data rather than a
// closure, so the engine can batch, link and account uniformly. The
// set is closed over the simulator's OS services (netsim sockets, fsim
// files); exec is unexported so new op types are added here, next to
// the accounting rules they must respect.
type Op interface {
	// Kind returns the opcode echoed in the op's CQE.
	Kind() Kind
	// exec runs the kernel half of the call in an untrusted context
	// and returns the op's result count (bytes moved; the new fd for
	// Open).
	exec(h *sgx.HostCtx) (int, error)
}

// Recv receives N wire bytes into the socket's untrusted staging
// buffer (the payload must have been staged with Deliver).
type Recv struct {
	Sock *netsim.Socket
	N    int
}

// Kind returns OpRecv.
func (o Recv) Kind() Kind { return OpRecv }

//eleos:untrusted
func (o Recv) exec(h *sgx.HostCtx) (int, error) { return o.Sock.Recv(h, o.N), nil }

// Send transmits N wire bytes from the socket's staging buffer.
type Send struct {
	Sock *netsim.Socket
	N    int
}

// Kind returns OpSend.
func (o Send) Kind() Kind { return OpSend }

//eleos:untrusted
func (o Send) exec(h *sgx.HostCtx) (int, error) { return o.Sock.Send(h, o.N), nil }

// Open opens (creating if needed) a file; the CQE's N is the new fd.
type Open struct {
	FS   *fsim.FS
	Name string
}

// Kind returns OpOpen.
func (o Open) Kind() Kind { return OpOpen }

//eleos:untrusted
func (o Open) exec(h *sgx.HostCtx) (int, error) { return o.FS.Open(h, o.Name) }

// Pread reads up to len(Buf) bytes at Off; N is the byte count (0 at
// or beyond EOF). Buf is untrusted-visible the moment the chain is
// submitted — enclave callers read ciphertext through it and decrypt.
type Pread struct {
	FS  *fsim.FS
	FD  int
	Off uint64
	Buf []byte
}

// Kind returns OpPread.
func (o Pread) Kind() Kind { return OpPread }

//eleos:untrusted
func (o Pread) exec(h *sgx.HostCtx) (int, error) { return o.FS.PRead(h, o.FD, o.Off, o.Buf) }

// Pwrite writes Data at Off, growing the file as needed. Data must
// stay untouched until the op completes (the worker reads it).
type Pwrite struct {
	FS   *fsim.FS
	FD   int
	Off  uint64
	Data []byte
}

// Kind returns OpPwrite.
func (o Pwrite) Kind() Kind { return OpPwrite }

//eleos:untrusted
func (o Pwrite) exec(h *sgx.HostCtx) (int, error) { return o.FS.PWrite(h, o.FD, o.Off, o.Data) }

// Fsync flushes a file's dirty pages.
type Fsync struct {
	FS *fsim.FS
	FD int
}

// Kind returns OpFsync.
func (o Fsync) Kind() Kind { return OpFsync }

//eleos:untrusted
func (o Fsync) exec(h *sgx.HostCtx) (int, error) { return 0, o.FS.Fsync(h, o.FD) }

// Close releases a file descriptor.
type Close struct {
	FS *fsim.FS
	FD int
}

// Kind returns OpClose.
func (o Close) Kind() Kind { return OpClose }

//eleos:untrusted
func (o Close) exec(h *sgx.HostCtx) (int, error) { return 0, o.FS.Close(h, o.FD) }
