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
	"flag"
	"fmt"
	"io"
	"log"
	"strconv"
	"sync"

	"eleos/internal/daemon"
	"eleos/internal/kv"
	"eleos/internal/sgx"
)

func main() {
	var f daemon.Flags
	f.Register(flag.CommandLine, "127.0.0.1:4700")
	dataMB := flag.Int("data", 64, "parameter data size in MiB")
	chain := flag.Bool("chaining", false, "use a chaining hash table instead of open addressing")
	flag.Parse()
	daemon.Main("pserverd", f, true,
		func(d *daemon.Daemon) (daemon.Handler, error) { return newServer(d, *dataMB, *chain) })
}

// newServer builds a table for dataMB MiB of parameters in the
// daemon's SUVM heap and serves the line protocol over it.
func newServer(d *daemon.Daemon, dataMB int, chaining bool) (daemon.Handler, error) {
	entries := uint64(dataMB) << 20 / 16
	buckets := uint64(1)
	for buckets < 2*entries {
		buckets *= 2
	}
	layout := kv.OpenAddressing
	if chaining {
		layout = kv.Chaining
	}
	region, err := kv.NewSUVMRegion(d.Heap, kv.FixedTableMemSize(layout, buckets, entries))
	if err != nil {
		return nil, err
	}
	table, err := kv.NewFixedTable(region, layout, buckets, entries)
	if err != nil {
		return nil, err
	}
	log.Printf("%s, %d entries capacity, SUVM-backed", layout, entries)
	// mu serializes table access across connections: FixedTable keeps
	// its bookkeeping unsynchronized (the benchmarks shard by thread),
	// so the daemon provides the lock.
	var mu sync.Mutex
	stats := func() string {
		st := d.Heap.Stats()
		return fmt.Sprintf("entries=%d sw_faults=%d minor=%d evictions=%d",
			table.Len(), st.MajorFaults, st.MinorFaults, st.Evictions)
	}
	add := func(w io.Writer, th *sgx.Thread, args []string) {
		if len(args) != 2 {
			fmt.Fprintf(w, "ERROR usage: ADD <key> <delta>\n")
			return
		}
		key, err1 := strconv.ParseUint(args[0], 10, 64)
		delta, err2 := strconv.ParseUint(args[1], 10, 64)
		if err1 != nil || err2 != nil || key == 0 {
			fmt.Fprintf(w, "ERROR bad arguments (keys are non-zero integers)\n")
			return
		}
		mu.Lock()
		err := table.Add(th, key, delta)
		var v uint64
		if err == nil {
			v, _ = table.Get(th, key)
		}
		mu.Unlock()
		if err != nil {
			fmt.Fprintf(w, "ERROR %v\n", err)
			return
		}
		fmt.Fprintf(w, "OK %d\n", v)
	}
	get := func(w io.Writer, th *sgx.Thread, args []string) {
		if len(args) != 1 {
			fmt.Fprintf(w, "ERROR usage: GET <key>\n")
			return
		}
		key, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil || key == 0 {
			fmt.Fprintf(w, "ERROR bad key\n")
			return
		}
		mu.Lock()
		v, err := table.Get(th, key)
		mu.Unlock()
		if err != nil {
			fmt.Fprintf(w, "NOT_FOUND\n")
			return
		}
		fmt.Fprintf(w, "VALUE %d\n", v)
	}
	return d.Lines(daemon.Lines{Stats: stats, Commands: map[string]daemon.Command{"ADD": add, "GET": get}}), nil
}
