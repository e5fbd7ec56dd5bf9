#!/bin/sh
# End-to-end smoke test for the tracing pipeline: build parbs-sim and
# parbs-trace, record a short PAR-BS run's lifecycle event log plus its
# Chrome trace artifact, run the starvation audit (parbs-trace analyze)
# over the log, and assert it passes. Also records an FR-FCFS run and
# asserts the audit reports it bound-free, and an 8-channel Independent
# PAR-BS run — each channel forming its own batches — whose audit must
# pass too. Exits nonzero on any failure.
#
# Usage: scripts/trace_smoke.sh
#   TRACE_OUT=<dir>  keep the artifacts there (default: a temp dir,
#                    deleted on exit) — CI uploads them.
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
out="${TRACE_OUT:-$tmp}"
mkdir -p "$out"

cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT INT TERM

go build -o "$tmp/parbs-sim" ./cmd/parbs-sim
go build -o "$tmp/parbs-trace" ./cmd/parbs-trace

"$tmp/parbs-sim" -sched PAR-BS -mix CSI -cycles 300000 \
	-trace "$out/parbs.trace.json" -trace-events "$out/parbs.jsonl" >/dev/null

# The Chrome artifact must be one well-formed JSON document.
if command -v python3 >/dev/null 2>&1; then
	python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/parbs.trace.json" ||
		{ echo "trace_smoke: Chrome trace is not valid JSON" >&2; exit 1; }
fi

"$tmp/parbs-trace" analyze "$out/parbs.jsonl" >"$out/parbs.analysis.txt"
grep -q '^starvation audit: PASS$' "$out/parbs.analysis.txt" ||
	{ echo "trace_smoke: PAR-BS starvation audit did not pass:" >&2; cat "$out/parbs.analysis.txt" >&2; exit 1; }

"$tmp/parbs-sim" -sched FR-FCFS -mix CSI -cycles 300000 \
	-trace-events "$out/frfcfs.jsonl" >/dev/null
"$tmp/parbs-trace" analyze "$out/frfcfs.jsonl" >"$out/frfcfs.analysis.txt"
grep -q 'starvation audit: FAIL (no bound to audit)' "$out/frfcfs.analysis.txt" ||
	{ echo "trace_smoke: FR-FCFS should audit as bound-free:" >&2; cat "$out/frfcfs.analysis.txt" >&2; exit 1; }

"$tmp/parbs-sim" -sched PAR-BS -mix omnetpp,mcf,libquantum,lbm,milc,soplex,leslie3d,GemsFDTD \
	-channels 8 -channel-mode independent -cycles 300000 \
	-trace-events "$out/independent.jsonl" >/dev/null
"$tmp/parbs-trace" analyze "$out/independent.jsonl" >"$out/independent.analysis.txt"
grep -q '^starvation audit: PASS$' "$out/independent.analysis.txt" ||
	{ echo "trace_smoke: 8-channel Independent PAR-BS starvation audit did not pass:" >&2; cat "$out/independent.analysis.txt" >&2; exit 1; }

echo "trace_smoke: OK (PAR-BS audits pass lock-step and Independent, FR-FCFS bound-free; artifacts in $out)"
