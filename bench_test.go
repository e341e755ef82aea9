// Benchmarks regenerating every table and figure of the paper's
// evaluation under testing.B. BenchmarkExperiments/<id> runs the
// experiment registered as <id> in internal/bench at CI scale (quick
// datasets) and logs the resulting table; cmd/eleos-bench runs the same experiments at
// paper scale. The interesting output is the logged table, not ns/op —
// performance is virtual time, deterministic across machines.
//
//	go test -bench=. -benchtime=1x
//	go test -bench=Experiments/fig7a -benchtime=1x
//
// This lives in the external test package: internal/bench imports the
// public eleos API (the consolidation experiment drives Services), so
// an in-package test file importing bench would be an import cycle.
package eleos_test

import (
	"testing"

	"eleos/internal/bench"
)

// benchOps keeps a full `go test -bench=.` sweep in CI time while still
// exercising thousands of requests per configuration.
const benchOps = 10_000

// BenchmarkExperiments runs every registered experiment as a
// sub-benchmark named by its ID, e.g. BenchmarkExperiments/fig7a.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			rc := bench.RunConfig{Ops: benchOps, Quick: true}
			for i := 0; i < b.N; i++ {
				res, err := e.Run(rc)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if i == 0 {
					b.Logf("\n%s", res.String())
				}
			}
		})
	}
}
