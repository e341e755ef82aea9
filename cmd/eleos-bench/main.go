// Command eleos-bench regenerates the tables and figures of the Eleos
// paper's evaluation on the simulated SGX platform.
//
// Usage:
//
//	eleos-bench                 # run every experiment at paper scale
//	eleos-bench -quick          # scaled-down datasets (CI-sized)
//	eleos-bench -run fig7a,tab2 # selected experiments only
//	eleos-bench -list           # list experiment IDs
//	eleos-bench -ops 20000      # override the per-configuration op count
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eleos/internal/bench"
)

// writeJSON renders the experiment — title, headers and rows of every
// table — as BENCH_<id>.json (dashes mapped to underscores), the
// machine-readable companion to the printed tables.
func writeJSON(dir string, res *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type jsonTable struct {
		Title   string     `json:"title"`
		Note    string     `json:"note,omitempty"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	doc := struct {
		ID     string      `json:"id"`
		Title  string      `json:"title"`
		Tables []jsonTable `json:"tables"`
	}{ID: res.ID, Title: res.Title}
	for _, t := range res.Tables {
		doc.Tables = append(doc.Tables, jsonTable{
			Title: t.Title, Note: t.Note, Headers: t.Headers, Rows: t.Rows,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := "BENCH_" + strings.ReplaceAll(res.ID, "-", "_") + ".json"
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func main() {
	var (
		runIDs  = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick   = flag.Bool("quick", false, "scaled-down datasets for fast runs")
		ops     = flag.Int("ops", 0, "operations per configuration (0 = experiment default)")
		runs    = flag.Int("runs", 0, "variance runs per configuration (0 = experiment default)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		jsonDir = flag.String("json", "", "also write each experiment as BENCH_<id>.json into this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	if *runIDs == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "eleos-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	rc := bench.RunConfig{Ops: *ops, Runs: *runs, Quick: *quick}
	failed := 0
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eleos-bench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Print(res.String())
		fmt.Printf("[%s completed in %.1fs host time]\n\n", e.ID, time.Since(start).Seconds())
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "eleos-bench: writing JSON for %s: %v\n", e.ID, err)
				failed++
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
