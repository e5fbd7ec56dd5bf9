GO ?= go

.PHONY: all build vet test race bench-smoke serve serve-smoke trace-smoke analyze-smoke check ci

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short re-measurement of the engine benchmark, failing on a >20%
# DRAMcycles/s regression vs the floor checked in via BENCH_5.json, plus
# one-iteration breakage checks of the PolicyDecision benchmarks and the
# Independent-channel engine. BENCH_1.json–BENCH_5.json are frozen records;
# end-to-end and per-layer measurements come from benchmark/run.sh.
bench-smoke:
	scripts/bench_smoke.sh

# Run the simulation service locally (Ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/parbs-serve

# Boot the service, submit a quick job over HTTP, assert it completes.
serve-smoke:
	scripts/serve_smoke.sh

# Record a short traced run, analyze it, assert the starvation audit
# passes. Set TRACE_OUT=<dir> to keep the artifacts.
trace-smoke:
	scripts/trace_smoke.sh

# Record the memory-attack mix, run the windowed analytics pipeline over
# its event log, assert the bottleneck attribution names thread 0 (the
# stream attacker). Set ANALYZE_OUT=<dir> to keep the artifacts.
analyze-smoke:
	scripts/analyze_smoke.sh

check: build vet race bench-smoke

# What .github/workflows/ci.yml runs (race is a separate CI job but part
# of the local gate).
ci: build vet test race bench-smoke
