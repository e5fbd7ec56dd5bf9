#!/bin/sh
# CI throughput gate: re-measures BenchmarkSimulatedCyclesPerSecond briefly
# and fails when it regresses more than 20% below the floor checked in via
# BENCH_5.json (its "after" column, a frozen record). The 20% margin
# absorbs machine noise (+-10% is routine on shared runners) while still
# catching any change that loses the next-event clock or one of the
# scheduling-path optimizations outright.
#
# Also runs one iteration of the PolicyDecision benchmarks as a breakage
# (not regression) check, preserving the old bench-smoke behavior.
set -eu

cd "$(dirname "$0")/.."

floor="$(awk '/"name": "BenchmarkSimulatedCyclesPerSecond"/{grab=1} grab && /"after":/ {gsub(/[^0-9.]/,"",$2); print $2; exit}' BENCH_5.json)"
[ -n "$floor" ] || { echo "bench_smoke.sh: no floor in BENCH_5.json" >&2; exit 1; }

out="$(go test -run '^$' -bench 'SimulatedCyclesPerSecond$' -benchtime 1s .)"
printf '%s\n' "$out"
# go test suffixes the name with -GOMAXPROCS when it is above 1.
measured="$(printf '%s\n' "$out" | awk '/^BenchmarkSimulatedCyclesPerSecond(-[0-9]+)?[ \t]/ {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
[ -n "$measured" ] || { echo "bench_smoke.sh: could not parse benchmark output" >&2; exit 1; }

go test -run '^$' -bench 'PolicyDecision' -benchtime 1x . > /dev/null

# Breakage (not regression) check of the sharded Independent-channel engine:
# one iteration; only completion is gated here.
go test -run '^$' -bench 'IndependentChannels' -benchtime 1x . > /dev/null
echo "bench-smoke: independent-channel engine OK"

awk -v m="$measured" -v f="$floor" 'BEGIN {
	limit = f * 0.8
	printf "bench-smoke: measured %.0f DRAMcycles/s, floor %.0f, limit %.0f\n", m, f, limit
	if (m < limit) {
		printf "bench-smoke: FAIL — >20%% regression vs checked-in floor\n"
		exit 1
	}
	printf "bench-smoke: OK\n"
}'
