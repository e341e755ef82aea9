package mckv

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"eleos/internal/exitio"
	"eleos/internal/netsim"
	"eleos/internal/sgx"
)

// connBufBytes sizes the per-connection simulated socket buffer used by
// ServeConnIO's syscall accounting.
const connBufBytes = 64 << 10

// ServeConnIO speaks the memcached text protocol (the subset the paper's
// workloads use: get, set, delete, stats, version, quit) on conn,
// executing operations on store via the given simulated thread. Every
// real TCP read and write is mirrored as a netsim recv/send on an
// exit-less endpoint over eng, so a daemon's virtual cycle counters
// reflect the same exit-less (or OCALL/native) I/O costs the
// closed-loop benchmarks measure. It returns when the client quits or
// the connection drops. One goroutine with its own thread per
// connection, as memcached does.
func ServeConnIO(conn net.Conn, store *Store, th *sgx.Thread, eng *exitio.Engine) error {
	defer conn.Close()
	ep := exitio.NewEndpoint(eng.NewQueue(), netsim.NewSocket(store.plat, connBufBytes))
	defer ep.Close()
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriter(conn)
	valBuf := make([]byte, maxItemSize)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("mckv: reading command: %w", err)
		}
		if err := ep.Recv(th, capTransfer(len(line))); err != nil {
			return fmt.Errorf("mckv: syscall accounting: %w", err)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit":
			return w.Flush()

		case "version":
			fmt.Fprintf(w, "VERSION eleos-mckv/1.0\r\n")

		case "get", "gets":
			if len(fields) < 2 {
				fmt.Fprintf(w, "ERROR\r\n")
				break
			}
			for _, k := range fields[1:] {
				n, err := store.Get(th, []byte(k), valBuf)
				if err == nil {
					fmt.Fprintf(w, "VALUE %s 0 %d\r\n", k, n)
					w.Write(valBuf[:n])
					fmt.Fprintf(w, "\r\n")
				}
			}
			fmt.Fprintf(w, "END\r\n")

		case "set":
			if len(fields) < 5 {
				fmt.Fprintf(w, "CLIENT_ERROR bad command line\r\n")
				break
			}
			n, err := strconv.Atoi(fields[4])
			if err != nil || n < 0 || n > maxItemSize {
				fmt.Fprintf(w, "CLIENT_ERROR bad data chunk size\r\n")
				break
			}
			data := make([]byte, n+2)
			if _, err := io.ReadFull(r, data); err != nil {
				return fmt.Errorf("mckv: reading data block: %w", err)
			}
			if err := ep.Recv(th, capTransfer(len(data))); err != nil {
				return fmt.Errorf("mckv: syscall accounting: %w", err)
			}
			if err := store.Set(th, []byte(fields[1]), data[:n]); err != nil {
				fmt.Fprintf(w, "SERVER_ERROR %v\r\n", err)
				break
			}
			fmt.Fprintf(w, "STORED\r\n")

		case "delete":
			if len(fields) < 2 {
				fmt.Fprintf(w, "ERROR\r\n")
				break
			}
			if err := store.Delete(th, []byte(fields[1])); err != nil {
				fmt.Fprintf(w, "NOT_FOUND\r\n")
			} else {
				fmt.Fprintf(w, "DELETED\r\n")
			}

		case "stats":
			fmt.Fprintf(w, "STAT curr_items %d\r\n", store.ItemCount())
			fmt.Fprintf(w, "STAT bytes %d\r\n", store.BytesUsed())
			fmt.Fprintf(w, "STAT evictions %d\r\n", store.Evictions())
			fmt.Fprintf(w, "STAT virtual_cycles %d\r\n", th.T.Cycles())
			st := eng.Stats()
			fmt.Fprintf(w, "STAT io_mode %s\r\n", ep.Queue().Mode())
			fmt.Fprintf(w, "STAT io_doorbells %d\r\n", st.Doorbells)
			fmt.Fprintf(w, "STAT io_linked %d\r\n", st.Linked)
			fmt.Fprintf(w, "END\r\n")

		default:
			fmt.Fprintf(w, "ERROR\r\n")
		}
		if n := w.Buffered(); n > 0 {
			if err := ep.Send(th, capTransfer(n)); err != nil {
				return fmt.Errorf("mckv: syscall accounting: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("mckv: writing response: %w", err)
		}
	}
}

// capTransfer bounds an accounted transfer to the simulated socket
// buffer (a real server would loop; one capped charge is close enough
// for accounting).
func capTransfer(n int) int {
	if n > connBufBytes {
		return connBufBytes
	}
	return n
}
