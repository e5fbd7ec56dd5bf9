#!/bin/sh
# Measures the gated scheduling-path benchmarks and records them in
# BENCH_5.json. The "before" numbers are frozen from BENCH_2.json's "after"
# column (the next-event clock engine, measured on the same machine class);
# BENCH_1.json and BENCH_2.json are frozen artifacts and are no longer
# rewritten. The ticked variant is recorded alongside to separate the
# next-event clock's contribution from controller-level optimizations, and
# -benchmem pins the steady-state allocation rate of the decision path.
#
# Usage: scripts/bench.sh [benchtime]   (default 2s)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-2s}"

out="$(go test -run '^$' -bench 'SimulatedCyclesPerSecond|PolicyDecision|IndependentChannels|IdleSingleCore' \
	-benchtime "$benchtime" -benchmem .)"
printf '%s\n' "$out"

cycles="$(printf '%s\n' "$out" | awk '/BenchmarkSimulatedCyclesPerSecond / {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
ticked="$(printf '%s\n' "$out" | awk '/BenchmarkSimulatedCyclesPerSecondTicked/ {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
dec128="$(printf '%s\n' "$out" | awk '/BenchmarkPolicyDecision\/occupancy-128/ {for (i=1;i<NF;i++) if ($(i+1)=="ns/op") print $i}')"
decallocs="$(printf '%s\n' "$out" | awk '/BenchmarkPolicyDecision\/occupancy-128/ {for (i=1;i<NF;i++) if ($(i+1)=="allocs/op") print $i}')"
seqch="$(printf '%s\n' "$out" | awk '/BenchmarkIndependentChannels\/sequential/ {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
parch="$(printf '%s\n' "$out" | awk '/BenchmarkIndependentChannels\/parallel-4/ {for (i=1;i<NF;i++) if ($(i+1)=="DRAMcycles/s") print $i}')"
[ -n "$cycles" ] && [ -n "$ticked" ] && [ -n "$dec128" ] && [ -n "$decallocs" ] && [ -n "$seqch" ] && [ -n "$parch" ] || {
	echo "bench.sh: could not parse benchmark output" >&2
	exit 1
}

cat > BENCH_5.json <<EOF
{
  "benchmarks": [
    {
      "name": "BenchmarkSimulatedCyclesPerSecond",
      "workload": "4-core Case Study I mix under PAR-BS",
      "unit": "DRAMcycles/s",
      "before": 2434033,
      "after": $cycles,
      "higher_is_better": true
    },
    {
      "name": "BenchmarkSimulatedCyclesPerSecondTicked",
      "workload": "same run with Config.ForceTicked (event clock off)",
      "unit": "DRAMcycles/s",
      "before": 2293963,
      "after": $ticked,
      "higher_is_better": true
    },
    {
      "name": "BenchmarkPolicyDecision/occupancy-128",
      "workload": "one scheduling decision, 128-entry read buffer + 16 writes",
      "unit": "ns/op",
      "before": 349.4,
      "after": $dec128,
      "allocs_per_op": $decallocs,
      "higher_is_better": false
    }
  ],
  "baseline": "next-event clock engine (BENCH_2.json after column)",
  "note": "Gains over the BENCH_2 baseline come from the per-evaluated-cycle fast path: the incrementally-maintained per-bank candidate cache (policy OrderEpoch contract, DESIGN.md section 16), deferred closed-form BLP accounting, intrusive request buffers with O(1) removal, request and trace-item recycling (zero steady-state allocations, see allocs_per_op), and slot-tagged completion routing that removed the per-request map lookups.",
  "benchtime": "$benchtime"
}
EOF
echo "wrote BENCH_5.json"

speedup="$(awk -v s="$seqch" -v p="$parch" 'BEGIN { printf "%.2f", p / s }')"
cat > BENCH_3.json <<EOF
{
  "benchmarks": [
    {
      "name": "BenchmarkIndependentChannels",
      "workload": "16-core random mix, 4 independent channels under PAR-BS (sharded engine)",
      "unit": "DRAMcycles/s",
      "before": $seqch,
      "after": $parch,
      "higher_is_better": true
    }
  ],
  "baseline": "Parallelism 1 (all shards stepped inline on the run goroutine)",
  "parallel": "Parallelism 4 (one worker goroutine per channel shard, per-cycle barrier)",
  "speedup": $speedup,
  "gomaxprocs": $(nproc),
  "note": "Both columns simulate the byte-identical schedule (pinned by TestParallelSequentialEquivalence); the gap is pure wall-clock. The speedup scales with available cores up to the channel count: on a >=4-core machine the 4 shards run concurrently and the parallel column targets >=2x the sequential one. With GOMAXPROCS=1 (single-CPU CI runners) the worker goroutines time-share one core and the per-cycle barrier is pure overhead, so the parallel column degrades below sequential -- use WithParallelism(1) or leave Parallelism at 0, which steps every shard inline with no worker pool.",
  "benchtime": "$benchtime"
}
EOF
echo "wrote BENCH_3.json"

# Single-core extremes: DRAM-idle compute-bound (povray) vs memory-stalled
# stream (matlab), event clock vs ForceTicked.
metric() { # metric <bench-regex> <unit>
	printf '%s\n' "$out" | awk -v re="$1" -v unit="$2" \
		'$0 ~ re {for (i=1;i<NF;i++) if ($(i+1)==unit) print $i}'
}
pov_ev="$(metric 'BenchmarkIdleSingleCore/povray/event-clock' 'DRAMcycles/s')"
pov_ti="$(metric 'BenchmarkIdleSingleCore/povray/ticked' 'DRAMcycles/s')"
pov_sk="$(metric 'BenchmarkIdleSingleCore/povray/event-clock' 'skipped%')"
mat_ev="$(metric 'BenchmarkIdleSingleCore/matlab/event-clock' 'DRAMcycles/s')"
mat_ti="$(metric 'BenchmarkIdleSingleCore/matlab/ticked' 'DRAMcycles/s')"
mat_sk="$(metric 'BenchmarkIdleSingleCore/matlab/event-clock' 'skipped%')"
[ -n "$pov_ev" ] && [ -n "$pov_ti" ] && [ -n "$pov_sk" ] && \
	[ -n "$mat_ev" ] && [ -n "$mat_ti" ] && [ -n "$mat_sk" ] || {
	echo "bench.sh: could not parse IdleSingleCore output" >&2
	exit 1
}
pov_x="$(awk -v e="$pov_ev" -v t="$pov_ti" 'BEGIN { printf "%.2f", e / t }')"
mat_x="$(awk -v e="$mat_ev" -v t="$mat_ti" 'BEGIN { printf "%.2f", e / t }')"

cat > BENCH_4.json <<EOF
{
  "benchmarks": [
    {
      "name": "BenchmarkIdleSingleCore/povray",
      "workload": "single povray core (0.03 MPKI, DRAM idle between requests) under PAR-BS",
      "unit": "DRAMcycles/s",
      "before": $pov_ti,
      "after": $pov_ev,
      "speedup": $pov_x,
      "skipped_pct": $pov_sk,
      "higher_is_better": true
    },
    {
      "name": "BenchmarkIdleSingleCore/matlab",
      "workload": "single matlab stream core (78.4 MPKI, memory-stalled) under PAR-BS",
      "unit": "DRAMcycles/s",
      "before": $mat_ti,
      "after": $mat_ev,
      "speedup": $mat_x,
      "skipped_pct": $mat_sk,
      "higher_is_better": true
    }
  ],
  "baseline": "Config.ForceTicked (every DRAM cycle evaluated)",
  "note": "The next-event clock jumps to the earliest cycle at which a core could call the memory port (its horizon: the current item's non-memory run or the instructions ahead of its oldest store, fetched and committed at full width) or a controller has an event, so a DRAM-idle compute-bound core (povray) skips nearly every cycle and a memory-stalled stream (matlab) skips the known DRAM-latency intervals. The committed BENCH_4.json predates the core horizon (povray then skipped under 1%); BENCH_9.json records the change.",
  "benchtime": "$benchtime"
}
EOF
echo "wrote BENCH_4.json"
