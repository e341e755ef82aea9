// Command memcachedd serves the memcached text protocol (get/set/
// delete/stats/version) over real TCP, with the item store running on
// the simulated SGX platform under the Eleos configuration of the
// paper's §5.1: security-insensitive metadata in untrusted memory,
// keys/values/sizes in SUVM, exit-less system calls. Point any
// memcached client at it.
//
//	memcachedd -listen :11211 -mem 256MB -placement suvm
package main

import (
	"flag"
	"log"
	"net"

	"eleos/internal/daemon"
	"eleos/internal/mckv"
	"eleos/internal/sgx"
)

func main() {
	var f daemon.Flags
	f.Register(flag.CommandLine, "127.0.0.1:11211")
	memMB := flag.Int("mem", 256, "item memory limit in MiB")
	placement := flag.String("placement", "suvm", "item payload placement: suvm|suvm-direct|epc|host")
	flag.Parse()
	pl := mckv.Placement(-1)
	for p := mckv.PlaceEnclave; p <= mckv.PlaceHost; p++ {
		if p.String() == *placement {
			pl = p
		}
	}
	if pl < 0 {
		log.Fatalf("memcachedd: unknown placement %q", *placement)
	}
	daemon.Main("memcachedd", f, pl == mckv.PlaceSUVM || pl == mckv.PlaceSUVMDirect,
		func(d *daemon.Daemon) (daemon.Handler, error) { return newServer(d, *memMB, pl) })
}

// newServer builds the item store and serves the memcached protocol
// over it.
func newServer(d *daemon.Daemon, memMB int, pl mckv.Placement) (daemon.Handler, error) {
	store, err := mckv.NewStore(d.Plat, d.Setup, mckv.Config{
		MemLimitBytes: uint64(memMB) << 20,
		Placement:     pl,
		Heap:          d.Heap,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("placement=%s, mem=%dMiB", pl, memMB)
	return func(conn net.Conn, th *sgx.Thread) error {
		return mckv.ServeConnIO(conn, store, th, d.Eng)
	}, nil
}
