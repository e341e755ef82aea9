// Package daemon is the harness the TCP daemons (memcachedd, pserverd,
// faceserverd) share: their common flags, one way to build the
// simulated machine through the public eleos runtime, the accept loop,
// and the line loop of the newline-terminated protocols. A daemon adds
// only its own flags, its store and its command handlers.
package daemon

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"strings"

	"eleos"
	"eleos/internal/exitio"
	"eleos/internal/netsim"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

// Flags are the flags every daemon has.
type Flags struct {
	Listen  string
	EPCppMB int
	Syscall string
	Workers int
}

// Register defines the common flags on fs, with listen as the default
// address.
func (f *Flags) Register(fs *flag.FlagSet, listen string) {
	fs.StringVar(&f.Listen, "listen", listen, "TCP listen address")
	fs.IntVar(&f.EPCppMB, "epcpp", 60, "SUVM page cache (EPC++) size in MiB")
	fs.StringVar(&f.Syscall, "syscall", "rpc-async", "simulated syscall dispatch: native|ocall|rpc|rpc-async")
	fs.IntVar(&f.Workers, "rpc-workers", 2, "untrusted RPC worker count (rpc modes)")
}

// Daemon is one daemon's simulated machine: a runtime with an
// unpartitioned LLC, one enclave, optionally its SUVM heap, and an I/O
// engine in the -syscall mode.
type Daemon struct {
	rt *eleos.Runtime

	Plat *sgx.Platform
	Encl *sgx.Enclave
	// Heap is the enclave's SUVM heap with -epcpp MiB of EPC++, nil for
	// a daemon built without one.
	Heap *suvm.Heap
	Eng  *eleos.IOEngine
	// Setup is an entered enclave thread for building the store.
	Setup *sgx.Thread
}

// New builds a daemon from its flags; heap says whether its store lives
// in SUVM.
func New(f Flags, heap bool) (d *Daemon, err error) {
	mode, err := exitio.ParseMode(f.Syscall)
	if err != nil {
		return nil, err
	}
	rt, err := eleos.NewRuntime(eleos.WithRPCWorkers(f.Workers), eleos.WithCATWays(0))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			rt.Close()
		}
	}()
	d = &Daemon{rt: rt, Plat: rt.Platform()}
	if d.Eng, err = rt.NewIOEngine(mode); err != nil {
		return nil, err
	}
	if heap {
		e, err := rt.NewEnclave(eleos.EnclaveConfig{
			PageCacheBytes: uint64(f.EPCppMB) << 20,
			Heap:           eleos.HeapConfig{BackingBytes: 4 << 30},
		})
		if err != nil {
			return nil, err
		}
		d.Encl, d.Heap = e.Raw(), e.Heap()
	} else if d.Encl, err = d.Plat.NewEnclave(); err != nil {
		return nil, err
	}
	d.Setup = d.Encl.NewThread()
	d.Setup.Enter()
	return d, nil
}

// Close stops the runtime's RPC workers.
func (d *Daemon) Close() { d.rt.Close() }

// Handler serves one connection on an entered enclave thread of its
// own.
type Handler func(conn net.Conn, th *sgx.Thread) error

// Main builds a daemon from f (already parsed), lets setup build the
// store and return its connection handler, then serves on f.Listen
// until the process is killed. Any failure is fatal.
func Main(name string, f Flags, heap bool, setup func(*Daemon) (Handler, error)) {
	log.SetPrefix(name + ": ")
	d, err := New(f, heap)
	if err != nil {
		log.Fatal(err)
	}
	h, err := setup(d)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", f.Listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s (syscall=%s)", ln.Addr(), d.Eng.Mode())
	log.Fatal(d.Serve(ln, h))
}

// Serve accepts connections on ln until ln is closed, serving each on
// its own goroutine and enclave thread.
func (d *Daemon) Serve(ln net.Listener, h Handler) error {
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		if err != nil {
			log.Printf("accept: %v", err)
			continue
		}
		go func() {
			defer conn.Close()
			th := d.Encl.NewThread()
			th.Enter()
			if err := h(conn, th); err != nil {
				log.Printf("connection: %v", err)
			}
			th.Exit()
		}()
	}
}

// Command answers one request of a line protocol, writing its reply to
// w. args are the request's fields after the command word.
type Command func(w io.Writer, th *sgx.Thread, args []string)

// Lines is a line protocol: one request per newline-terminated line,
// whose first field, upper-cased, names the command.
type Lines struct {
	// Stats returns the daemon's own counters for the STATS reply; the
	// harness appends the connection thread's virtual cycles and the
	// engine's mode and doorbells.
	Stats func() string
	// Commands maps a command word to its handler. QUIT and STATS are
	// the harness's; any other word gets "ERROR unknown command".
	Commands map[string]Command
}

// sockBytes is the staging buffer of a connection's simulated socket.
const sockBytes = 64 << 10

// Lines returns a handler for the line protocol l. Every TCP read and
// write is mirrored as a simulated recv or send on an exit-less
// endpoint over the daemon's engine, so the STATS cycle counts include
// the I/O path. A line longer than the socket's buffer is mirrored as
// one full-buffer receive, since a longer one comes back short.
func (d *Daemon) Lines(l Lines) Handler {
	return func(conn net.Conn, th *sgx.Thread) error {
		ep := exitio.NewEndpoint(d.Eng.NewQueue(), netsim.NewSocket(d.Plat, sockBytes))
		defer ep.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		for {
			line, err := r.ReadString('\n')
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := ep.Recv(th, min(len(line), sockBytes)); err != nil {
				return err
			}
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			switch cmd := strings.ToUpper(fields[0]); {
			case cmd == "QUIT":
				return w.Flush()
			case cmd == "STATS":
				fmt.Fprintf(w, "%s cycles=%d io_mode=%s io_doorbells=%d\n",
					l.Stats(), th.T.Cycles(), d.Eng.Mode(), d.Eng.Stats().Doorbells)
			case l.Commands[cmd] != nil:
				l.Commands[cmd](w, th, fields[1:])
			default:
				fmt.Fprintf(w, "ERROR unknown command\n")
			}
			if n := w.Buffered(); n > 0 {
				if err := ep.Send(th, n); err != nil {
					return err
				}
			}
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}

// Transcript serves one connection with h on a loopback listener, sends
// it script in one write and returns everything the daemon answered
// before it closed the connection.
func (d *Daemon) Transcript(h Handler, script []byte) ([]byte, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go d.Serve(ln, h)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	go conn.Write(script) // a failed write shows as a short transcript
	return io.ReadAll(conn)
}
