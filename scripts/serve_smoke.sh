#!/bin/sh
# End-to-end smoke test for parbs-serve: build the binary, boot it on a
# private port, submit one quick simulation over HTTP, poll until it
# completes, and verify a cached replay answers with 200. Then do the same
# for a short run with trace events, whose views must embed the Chrome
# trace and whose /trace must serve the event log. Finally check that the
# /metrics counters reconcile. Exits nonzero on any failure.
#
# Usage: scripts/serve_smoke.sh [port]   (default 18380)
set -eu

cd "$(dirname "$0")/.."
port="${1:-18380}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pid=""

cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/parbs-serve" ./cmd/parbs-serve
"$tmp/parbs-serve" -addr "127.0.0.1:$port" &
pid=$!

for _ in $(seq 1 50); do
	if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
	sleep 0.1
done
curl -fsS "$base/healthz" >/dev/null || { echo "serve_smoke: server never became healthy" >&2; exit 1; }

spec='{
  "client": "smoke",
  "system":    {"cores": 4, "warmup_cycles": 10000, "measure_cycles": 100000},
  "workload":  {"mix": "CSI"},
  "scheduler": {"name": "PAR-BS"},
  "telemetry": {"epoch_cycles": 10240}
}'

# submit SPEC NAME: POST SPEC, expect 202, and print the new run's id.
submit() {
	code="$(curl -s -o "$tmp/$2-submit.json" -w '%{http_code}' -d "$1" "$base/v1/runs")"
	[ "$code" = "202" ] || { echo "serve_smoke: submit $2 returned $code" >&2; cat "$tmp/$2-submit.json" >&2; exit 1; }
	sid="$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$tmp/$2-submit.json" | head -1)"
	[ -n "$sid" ] || { echo "serve_smoke: no run id in submit $2 response" >&2; exit 1; }
	echo "$sid"
}

# wait_done ID OUT: poll GET /v1/runs/ID into OUT until the run is done.
wait_done() {
	status=""
	for _ in $(seq 1 600); do
		code="$(curl -s -o "$2" -w '%{http_code}' "$base/v1/runs/$1")"
		[ "$code" = "200" ] || { echo "serve_smoke: GET $1 returned $code" >&2; exit 1; }
		status="$(sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' "$2" | head -1)"
		case "$status" in
		done) return 0 ;;
		failed) echo "serve_smoke: run $1 failed:" >&2; cat "$2" >&2; exit 1 ;;
		esac
		sleep 0.5
	done
	echo "serve_smoke: run $1 stuck in '$status'" >&2
	exit 1
}

# replay SPEC NAME: an identical resubmission must replay from the cache:
# 200, no new run.
replay() {
	code="$(curl -s -o "$tmp/$2-replay.json" -w '%{http_code}' -d "$1" "$base/v1/runs")"
	[ "$code" = "200" ] || { echo "serve_smoke: cached replay of $2 returned $code, want 200" >&2; exit 1; }
	grep -q '"cached": *true' "$tmp/$2-replay.json" || { echo "serve_smoke: replay of $2 not marked cached" >&2; exit 1; }
}

id="$(submit "$spec" plain)"
wait_done "$id" "$tmp/run.json"
grep -q '"scheduler": *"PAR-BS"' "$tmp/run.json" || { echo "serve_smoke: report missing from terminal view" >&2; exit 1; }
grep -q 'parbs.telemetry/v1' "$tmp/run.json" || { echo "serve_smoke: telemetry missing from terminal view" >&2; exit 1; }
replay "$spec" plain

# A short run with trace events: its view embeds the Chrome trace rendered
# from the stored event log, its cached replay carries it too, and /trace
# serves the log as parbs.trace/v1 JSONL, run header first.
tspec='{
  "client": "smoke",
  "system":    {"cores": 4, "warmup_cycles": 2000, "measure_cycles": 20000},
  "workload":  {"mix": "CSI"},
  "scheduler": {"name": "PAR-BS"},
  "trace":     {"events": true}
}'
tid="$(submit "$tspec" traced)"
wait_done "$tid" "$tmp/traced.json"
grep -q '"traceEvents"' "$tmp/traced.json" || { echo "serve_smoke: Chrome trace missing from traced view" >&2; exit 1; }
grep -q '"dropped": 0' "$tmp/traced.json" || { echo "serve_smoke: traced view's trace dropped events" >&2; exit 1; }
replay "$tspec" traced
grep -q '"traceEvents"' "$tmp/traced-replay.json" || { echo "serve_smoke: Chrome trace missing from traced replay" >&2; exit 1; }
curl -fsS -o "$tmp/trace.jsonl" "$base/v1/runs/$tid/trace" || { echo "serve_smoke: GET trace of $tid failed" >&2; exit 1; }
head -n 1 "$tmp/trace.jsonl" | grep -q '"kind":"run"' || { echo "serve_smoke: trace does not start with the run header" >&2; head -c 300 "$tmp/trace.jsonl" >&2; exit 1; }

curl -fsS "$base/metrics" >"$tmp/metrics"
grep -q '^parbs_serve_jobs_accepted_total 4$' "$tmp/metrics" || { echo "serve_smoke: accepted != 4" >&2; cat "$tmp/metrics" >&2; exit 1; }
grep -q '^parbs_serve_jobs_completed_total 4$' "$tmp/metrics" || { echo "serve_smoke: completed != 4" >&2; cat "$tmp/metrics" >&2; exit 1; }
grep -q '^parbs_serve_cache_hits_total 2$' "$tmp/metrics" || { echo "serve_smoke: cache_hits != 2" >&2; cat "$tmp/metrics" >&2; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "serve_smoke: OK (runs $id and traced $tid completed, replayed from cache, trace served, metrics reconcile)"
