# Tier-1 gate and helpers for the Eleos simulation repo.
#
#   make check   — the full tier-1 gate: formatting, vet, build, lint
#                  (eleoslint + staticcheck), tests (including the RPC
#                  stress tests under the race detector)
#   make lint    — the static-invariant gate alone: the custom eleoslint
#                  analyzers (trust boundary, determinism, lock order)
#                  plus staticcheck when it is installed
#   make bench   — regenerate the exit-less I/O microbenchmark artifacts
#                  (BENCH_rpc_async.json, BENCH_io_engine.json,
#                  BENCH_selftune.json, BENCH_consolidation.json,
#                  BENCH_fleet.json and BENCH_traffic.json in the repo
#                  root) and the 17 paper and ablation artifacts under
#                  testdata/bench-paper
#   make bench-gate
#                — the variance-aware perf gate: run the open-loop
#                  traffic experiment at smoke size and compare against
#                  the checked-in baseline with cmd/perfdiff; fails on
#                  a significant regression or a shape change. Then
#                  regenerate the two controller artifacts, the
#                  consolidation experiment, the RPC submission-mode
#                  experiment and the exit-less I/O engine experiment
#                  (BENCH_selftune.json, BENCH_fleet.json,
#                  BENCH_consolidation.json, BENCH_rpc_async.json,
#                  BENCH_io_engine.json) and the 17 paper and ablation
#                  experiments
#                  (testdata/bench-paper/BENCH_*.json), and fail unless
#                  each is byte-identical to the checked-in file
#   make bench-gate-baseline
#                — regenerate the checked-in bench-gate baseline (run
#                  after a deliberate performance or schema change)
#   make test    — plain test run, no race detector

GO ?= go
BIN ?= bin

# The gate runs the traffic experiment at a fixed smoke size so the
# checked-in baseline and the fresh run see identical schedules; all
# numbers are virtual cycles, so on unchanged code the two files are
# bit-identical on any host.
GATE_FLAGS = -quick -ops 5000 -runs 3 -run traffic
GATE_BASELINE = testdata/bench-gate

# The controller experiments, the consolidation experiment, the RPC
# submission-mode experiment and the I/O engine experiment print only
# virtual-cycle figures, decision counts and queue depths, so they
# regenerate byte-identical on unchanged code: the gate compares them
# exactly. Consolidation and fleet build their servers through the
# tenant layer on eleos.NewRuntime, so they also pin how the public
# runtime is constructed and how every tenant request runs; rpc-async
# pins where the RPC pool places each call. A deliberate change
# regenerates them with `make bench`.
GATE_EXACT = BENCH_selftune.json BENCH_fleet.json BENCH_consolidation.json BENCH_rpc_async.json BENCH_io_engine.json

# The paper and ablation experiments whose -quick output is
# byte-identical run to run. The gate compares each regenerated file
# in GATE_PAPER_DIR exactly, so a refactor of anything they drive must
# leave every printed figure alone. The other seven (fig7b, tab2,
# suvm-mt, fig9, fig10, fig11, tab4) run simulated threads as free
# goroutines, so host scheduling moves their output; they join once
# every simulated thread runs on virtual time.
GATE_PAPER = fig1,tab1,fig2a,fig2b,fig6a,fig6b,fig6c,fig7a,fig8a,fig8b,tab3,pflat,abl-wb,abl-link,abl-pgsz,abl-evict,abl-batch
GATE_PAPER_DIR = testdata/bench-paper

.PHONY: check fmt vet build test race bench bench-gate bench-gate-baseline lint eleoslint staticcheck

check: fmt vet build lint race

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint: eleoslint staticcheck

# The custom analyzer suite: trustboundary, simdeterminism,
# servicedomain, lockorder, atomicfield and hotpath. Built from source
# every time (the Go build cache makes the rebuild free) and run over
# the whole module. See internal/lint and DESIGN.md "Static invariants".
eleoslint:
	$(GO) build -o $(BIN)/eleoslint ./cmd/eleoslint
	./$(BIN)/eleoslint ./...

# staticcheck is pinned in tools/tools.go but the build environment is
# offline, so the gate runs it only where it is installed (CI installs
# it; see .github/workflows/ci.yml). Configuration in staticcheck.conf.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it)"; \
	fi

bench:
	$(GO) run ./cmd/eleos-bench -quick -run rpc-async,io-engine,selftune,consolidation,fleet,traffic -json .
	$(GO) run ./cmd/eleos-bench -quick -run $(GATE_PAPER) -json $(GATE_PAPER_DIR)

bench-gate:
	$(GO) build -o $(BIN)/perfdiff ./cmd/perfdiff
	$(GO) run ./cmd/eleos-bench $(GATE_FLAGS) -json $(BIN)/gate >/dev/null
	./$(BIN)/perfdiff $(GATE_BASELINE)/BENCH_traffic.json $(BIN)/gate/BENCH_traffic.json
	$(GO) run ./cmd/eleos-bench -quick -run selftune,fleet,consolidation,rpc-async,io-engine -json $(BIN)/gate >/dev/null
	@for f in $(GATE_EXACT); do \
		cmp $$f $(BIN)/gate/$$f || { echo "bench-gate: $$f differs from the checked-in file" >&2; exit 1; }; \
	done
	$(GO) run ./cmd/eleos-bench -quick -run $(GATE_PAPER) -json $(BIN)/gate/paper >/dev/null
	@for f in $(GATE_PAPER_DIR)/BENCH_*.json; do \
		cmp $$f $(BIN)/gate/paper/$${f##*/} || { echo "bench-gate: $$f differs from the checked-in file" >&2; exit 1; }; \
	done

bench-gate-baseline:
	$(GO) run ./cmd/eleos-bench $(GATE_FLAGS) -json $(GATE_BASELINE) >/dev/null
