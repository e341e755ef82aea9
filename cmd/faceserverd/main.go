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
	"flag"
	"fmt"
	"io"
	"log"
	"strconv"

	"eleos/internal/daemon"
	"eleos/internal/faceverify"
	"eleos/internal/sgx"
)

func main() {
	var f daemon.Flags
	f.Register(flag.CommandLine, "127.0.0.1:4600")
	identities := flag.Uint64("identities", 64, "enrolled population size")
	flag.Parse()
	daemon.Main("faceserverd", f, true,
		func(d *daemon.Daemon) (daemon.Handler, error) { return newServer(d, *identities) })
}

// newServer enrolls identities into a descriptor database in the
// daemon's SUVM heap and serves the line protocol over it.
func newServer(d *daemon.Daemon, identities uint64) (daemon.Handler, error) {
	log.Printf("enrolling %d identities (%.1f MiB of descriptors)...",
		identities, float64(faceverify.DatabaseBytes(identities))/(1<<20))
	store, err := faceverify.NewStore(d.Plat, d.Setup, faceverify.Config{
		Identities: identities,
		Placement:  faceverify.PlaceSUVM,
		Heap:       d.Heap,
		Synthetic:  false, // the daemon runs the real pipeline
	})
	if err != nil {
		return nil, err
	}
	stats := func() string {
		st := d.Heap.Stats()
		return fmt.Sprintf("identities=%d sw_faults=%d evictions=%d clean_drops=%d",
			store.Identities(), st.MajorFaults, st.Evictions, st.CleanDrops)
	}
	verify := func(w io.Writer, th *sgx.Thread, args []string) {
		if len(args) != 2 {
			fmt.Fprintf(w, "ERROR usage: VERIFY <identity> <variant>\n")
			return
		}
		id, err1 := strconv.ParseUint(args[0], 10, 64)
		variant, err2 := strconv.ParseUint(args[1], 10, 64)
		if err1 != nil || err2 != nil {
			fmt.Fprintf(w, "ERROR bad arguments\n")
			return
		}
		// Render the capture and run the real pipeline.
		query := faceverify.LBPDescriptor(faceverify.SynthImage(id, variant))
		desc := make([]byte, faceverify.DescriptorBytes)
		n, err := store.Lookup(th, id, desc)
		if err != nil {
			fmt.Fprintf(w, "ERROR %v\n", err)
			return
		}
		d := faceverify.ChiSquare(query, desc[:n])
		verdict := "REJECT"
		if d < faceverify.VerifyThreshold {
			verdict = "ACCEPT"
		}
		fmt.Fprintf(w, "%s %.0f\n", verdict, d)
	}
	return d.Lines(daemon.Lines{Stats: stats, Commands: map[string]daemon.Command{"VERIFY": verify}}), nil
}
