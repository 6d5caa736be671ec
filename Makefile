# PROTEAN build and verification targets. `make ci` is what the GitHub
# Actions workflow runs; `make lint` enforces the determinism invariants
# documented in DESIGN.md via cmd/protean-lint.

GO ?= go

.PHONY: all build vet lint lint-json lint-graph test race bench bench-quick trace-demo chaos-demo soak-demo ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/protean-lint ./...

# Machine-readable findings, sorted by (file, line, rule) — what CI
# uploads as its lint-findings artifact.
lint-json:
	$(GO) run ./cmd/protean-lint -json ./... > lint-findings.json || true
	@echo wrote lint-findings.json

# Dump the callgraph the flow analyzers reason over: one line per
# function with [hotpath] / [go] markers and one line per resolved edge.
lint-graph:
	$(GO) run ./cmd/protean-lint -graph ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run perfbench, the repository's benchmark (see BENCHMARK.json), over
# every workload at seed 1 and append one JSON record per workload,
# stamped with the git sha, host and Go version, to bench-results.jsonl:
# an append-only ledger across commits. Compare two ledgers with
# `bash perfbench/run.sh --compare base.jsonl head.jsonl`.
bench:
	bash perfbench/run.sh --seed 1 --out bench-results.jsonl

# Smoke-run a pair of cheap experiments through the parallel scenario
# runner; CI uses this to catch runner regressions end to end.
bench-quick:
	$(GO) run ./cmd/protean-bench -run fig2,stats -quick -parallel 4

# Record a quick traced scenario and write trace-demo.json — open it at
# ui.perfetto.dev (or chrome://tracing) to inspect batch lifecycles,
# MIG reconfigurations and autoscale decisions on a timeline.
trace-demo:
	$(GO) run ./cmd/protean-bench -run fig2 -quick -trace trace-demo.json

# Run the full chaos fault sweep: availability, goodput and cost for a
# static-MIG baseline vs PROTEAN at 0x/0.5x/1x/2x of the reference
# fault mix, plus a cold-start fault stress table. Deterministic per
# seed — see the "Fault model" section of DESIGN.md.
chaos-demo:
	$(GO) run ./cmd/protean-bench -run chaos -seed 1

# Live control-plane demo: start proteand with the wall-clock-paced
# /v1 serving plane, run a 30 s multi-tenant soak (diurnal + bursty mix,
# sparse tenants that scale to zero and wake back up, fault injection at
# 0.5x), print per-tenant SLO attainment and usage, and shut down.
soak-demo:
	$(GO) build -o /tmp/protean-soak-proteand ./cmd/proteand
	$(GO) build -o /tmp/protean-soak-load ./cmd/protean-load
	/tmp/protean-soak-proteand -addr :8092 -serve & echo $$! > /tmp/protean-soak.pid; \
	sleep 1; \
	/tmp/protean-soak-load -server http://localhost:8092 -soak 30s -tenants 6 -chaos 0.5 -min-slo 0.5; \
	rc=$$?; kill $$(cat /tmp/protean-soak.pid); rm -f /tmp/protean-soak.pid; exit $$rc

ci: build vet lint race bench-quick
