// Command pserverd runs the §2 parameter server over real TCP on the
// simulated SGX platform, with the table in SUVM and exit-less system
// calls. The line protocol mirrors the workload the paper drives with
// its load generator:
//
//	ADD <key> <delta>\n   ->  OK <new-value>\n
//	GET <key>\n           ->  VALUE <value>\n
//	STATS\n               ->  one line of counters
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
	"sync"

	"eleos/internal/exitio"
	"eleos/internal/kv"
	"eleos/internal/netsim"
	"eleos/internal/rpc"
	"eleos/internal/sgx"
	"eleos/internal/suvm"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:4700", "TCP listen address")
		dataMB  = flag.Int("data", 64, "parameter data size in MiB")
		epcppMB = flag.Int("epcpp", 60, "SUVM page cache size in MiB")
		chain   = flag.Bool("chaining", false, "use a chaining hash table instead of open addressing")
		syscall = flag.String("syscall", "rpc-async", "simulated syscall dispatch: native|ocall|rpc|rpc-async")
		workers = flag.Int("rpc-workers", 2, "untrusted RPC worker count (rpc modes)")
	)
	flag.Parse()
	mode, err := exitio.ParseMode(*syscall)
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}

	plat, err := sgx.NewPlatform(sgx.Config{})
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}
	var pool *rpc.Pool
	if mode.NeedsPool() {
		pool = rpc.NewPool(plat, *workers, 256)
		pool.Start()
		defer pool.Stop()
	}
	eng, err := exitio.NewEngine(mode, pool)
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}
	encl, err := plat.NewEnclave()
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}
	setup := encl.NewThread()
	setup.Enter()
	heap, err := suvm.New(encl, setup, suvm.Config{
		PageCacheBytes: uint64(*epcppMB) << 20,
		BackingBytes:   4 << 30,
	})
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}

	entries := uint64(*dataMB) << 20 / 16
	buckets := uint64(1)
	for buckets < 2*entries {
		buckets *= 2
	}
	layout := kv.OpenAddressing
	if *chain {
		layout = kv.Chaining
	}
	region, err := kv.NewSUVMRegion(heap, kv.FixedTableMemSize(layout, buckets, entries))
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}
	table, err := kv.NewFixedTable(region, layout, buckets, entries)
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("pserverd: %v", err)
	}
	log.Printf("pserverd: serving on %s (%s, %d entries capacity, SUVM-backed, syscall=%s)",
		ln.Addr(), layout, entries, mode)
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("pserverd: accept: %v", err)
			continue
		}
		go serve(conn, encl, heap, table, eng)
	}
}

// tableMu serializes table access across connections: FixedTable keeps
// its bookkeeping unsynchronized (the benchmarks shard by thread), so
// the daemon provides the lock.
var tableMu sync.Mutex

func serve(conn net.Conn, encl *sgx.Enclave, heap *suvm.Heap, table *kv.FixedTable, eng *exitio.Engine) {
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
			fmt.Fprintf(w, "entries=%d sw_faults=%d minor=%d evictions=%d cycles=%d io_mode=%s io_doorbells=%d\n",
				table.Len(), st.MajorFaults, st.MinorFaults, st.Evictions, th.T.Cycles(), eng.Mode(), io.Doorbells)
		case "ADD":
			if len(fields) != 3 {
				fmt.Fprintf(w, "ERROR usage: ADD <key> <delta>\n")
				break
			}
			key, err1 := strconv.ParseUint(fields[1], 10, 64)
			delta, err2 := strconv.ParseUint(fields[2], 10, 64)
			if err1 != nil || err2 != nil || key == 0 {
				fmt.Fprintf(w, "ERROR bad arguments (keys are non-zero integers)\n")
				break
			}
			tableMu.Lock()
			err := table.Add(th, key, delta)
			var v uint64
			if err == nil {
				v, _ = table.Get(th, key)
			}
			tableMu.Unlock()
			if err != nil {
				fmt.Fprintf(w, "ERROR %v\n", err)
				break
			}
			fmt.Fprintf(w, "OK %d\n", v)
		case "GET":
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERROR usage: GET <key>\n")
				break
			}
			key, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil || key == 0 {
				fmt.Fprintf(w, "ERROR bad key\n")
				break
			}
			tableMu.Lock()
			v, err := table.Get(th, key)
			tableMu.Unlock()
			if err != nil {
				fmt.Fprintf(w, "NOT_FOUND\n")
				break
			}
			fmt.Fprintf(w, "VALUE %d\n", v)
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
