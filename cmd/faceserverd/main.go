// Command faceserverd runs the face-verification server of the paper's
// §5.2 over real TCP, with the descriptor database in SUVM on the
// simulated SGX platform. The line protocol keeps the demo self-
// contained: the client names an enrolled identity and a capture
// variant, the server renders that capture, runs the real LBP pipeline
// and answers ACCEPT or REJECT.
//
//	VERIFY <identity> <variant>\n  ->  ACCEPT|REJECT <chi-square>\n
//	STATS\n                        ->  one line of counters
//	QUIT\n
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"

	"eleos/internal/exitio"
	"eleos/internal/faceverify"
	"eleos/internal/netsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:4600", "TCP listen address")
		identities = flag.Uint64("identities", 64, "enrolled population size")
		epcppMB    = flag.Int("epcpp", 60, "SUVM page cache size in MiB")
		syscall    = flag.String("syscall", "rpc-async", "simulated syscall dispatch: native|ocall|rpc|rpc-async")
		workers    = flag.Int("rpc-workers", 2, "untrusted RPC worker count (rpc modes)")
	)
	flag.Parse()
	mode, err := exitio.ParseMode(*syscall)
	if err != nil {
		log.Fatalf("faceserverd: %v", err)
	}

	plat, err := sgx.NewPlatform(sgx.Config{})
	if err != nil {
		log.Fatalf("faceserverd: %v", err)
	}
	var pool *rpc.Pool
	if mode.NeedsPool() {
		pool = rpc.NewPool(plat, *workers, 256)
		pool.Start()
		defer pool.Stop()
	}
	eng, err := exitio.NewEngine(mode, pool)
	if err != nil {
		log.Fatalf("faceserverd: %v", err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		log.Fatalf("faceserverd: %v", err)
	}
	setup := encl.NewThread()
	setup.Enter()
	heap, err := suvm.New(encl, setup, suvm.Config{
		PageCacheBytes: uint64(*epcppMB) << 20,
		BackingBytes:   4 << 30,
	})
	if err != nil {
		log.Fatalf("faceserverd: %v", err)
	}
	log.Printf("faceserverd: enrolling %d identities (%s of descriptors)...",
		*identities, byteSize(faceverify.DatabaseBytes(*identities)))
	store, err := faceverify.NewStore(plat, setup, faceverify.Config{
		Identities: *identities,
		Placement:  faceverify.PlaceSUVM,
		Heap:       heap,
		Synthetic:  false, // the daemon runs the real pipeline
	})
	if err != nil {
		log.Fatalf("faceserverd: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("faceserverd: %v", err)
	}
	log.Printf("faceserverd: serving on %s (syscall=%s)", ln.Addr(), mode)
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("faceserverd: accept: %v", err)
			continue
		}
		go serve(conn, encl, heap, store, eng)
	}
}

func serve(conn net.Conn, encl *sgx.Enclave, heap *suvm.Heap, store *faceverify.Store, eng *exitio.Engine) {
	defer conn.Close()
	th := encl.NewThread()
	th.Enter()
	defer th.Exit()
	// Mirror each real TCP transfer as a simulated syscall on an
	// exit-less endpoint, so STATS cycle counts include the I/O path.
	ep := exitio.NewEndpoint(eng.NewQueue(), netsim.NewSocket(encl.Platform(), 64<<10))
	defer ep.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	desc := make([]byte, faceverify.DescriptorBytes)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		if ep.Recv(th, len(line)) != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "QUIT":
			w.Flush()
			return
		case "STATS":
			st := heap.Stats()
			io := eng.Stats()
			fmt.Fprintf(w, "identities=%d sw_faults=%d evictions=%d clean_drops=%d cycles=%d io_mode=%s io_doorbells=%d\n",
				store.Identities(), st.MajorFaults, st.Evictions, st.CleanDrops, th.T.Cycles(), eng.Mode(), io.Doorbells)
		case "VERIFY":
			if len(fields) != 3 {
				fmt.Fprintf(w, "ERROR usage: VERIFY <identity> <variant>\n")
				break
			}
			id, err1 := strconv.ParseUint(fields[1], 10, 64)
			variant, err2 := strconv.ParseUint(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				fmt.Fprintf(w, "ERROR bad arguments\n")
				break
			}
			// Render the capture and run the real pipeline.
			query := faceverify.LBPDescriptor(faceverify.SynthImage(id, variant))
			n, err := store.Lookup(th, id, desc)
			if err != nil {
				fmt.Fprintf(w, "ERROR %v\n", err)
				break
			}
			d := faceverify.ChiSquare(query, desc[:n])
			verdict := "REJECT"
			if d < faceverify.VerifyThreshold {
				verdict = "ACCEPT"
			}
			fmt.Fprintf(w, "%s %.0f\n", verdict, d)
		default:
			fmt.Fprintf(w, "ERROR unknown command\n")
		}
		if n := w.Buffered(); n > 0 {
			if ep.Send(th, n) != nil {
				return
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func byteSize(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
