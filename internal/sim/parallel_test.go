package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The parallel equivalence harness: RunIndependent must produce byte-
// identical observable output — command stream (channel stamps included),
// telemetry report and trace log — no matter how many worker goroutines
// execute the channel shards, and no matter whether the next-event clock
// skips or ticks. Sequential inline execution (Parallelism=1) is the
// reference; the parallel paths must match it exactly, for every
// registered policy. Run under -race in CI, this also proves the shard
// barrier protocol publishes every cross-shard effect correctly.

// differentialShardRun executes one fully-instrumented independent-channel
// run under the chosen scheduling path (referenceScan) and captures its
// command-stream digest (with channel stamps), telemetry report and trace
// log.
func differentialShardRun(t *testing.T, polName string, mix workload.Mix, seed int64, channels, parallelism int, referenceScan, forceTicked bool) (streamDigest, []byte, []byte) {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 150_000
	cfg.Geometry.Channels = channels
	cfg.Parallelism = parallelism
	cfg.Ctrl.ReferenceScan = referenceScan
	cfg.ForceTicked = forceTicked
	probe := telemetry.NewProbe(telemetry.Config{EpochDRAMCycles: 2048})
	cfg.Probe = probe
	tr := trace.NewTracer(trace.Config{})
	cfg.Tracer = tr
	h := fnv.New64a()
	var buf [8]byte
	var count int64
	cfg.CommandLog = func(ev memctrl.CommandEvent) {
		count++
		for _, v := range []int64{ev.Now, int64(ev.Channel), int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	factory := func() memctrl.Policy {
		pol, err := sched.ByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	if _, err := RunIndependent(cfg, mix, factory); err != nil {
		t.Fatalf("%s %s (channels=%d parallelism=%d ticked=%v): %v",
			polName, mix.Name, channels, parallelism, forceTicked, err)
	}
	rep := probe.Report(telemetry.ReportMeta{Policy: polName, Workload: mix.Name})
	rep.Loop = nil
	telJSON, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := tr.WriteJSONL(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return streamDigest{hash: h.Sum64(), count: count}, telJSON, traceBuf.Bytes()
}

// expectIdenticalShardRuns asserts two shard-executor configurations agree
// byte for byte on every observable output.
func expectIdenticalShardRuns(t *testing.T, polName string, mix workload.Mix, seed int64, channels int, parA, parB int, tickA, tickB bool) {
	t.Helper()
	a, aTel, aTr := differentialShardRun(t, polName, mix, seed, channels, parA, false, tickA)
	b, bTel, bTr := differentialShardRun(t, polName, mix, seed, channels, parB, false, tickB)
	if a.count == 0 {
		t.Fatal("reference run issued no commands (vacuous)")
	}
	if a != b {
		t.Errorf("command streams diverge: {par=%d ticked=%v: hash %#x, %d cmds} vs {par=%d ticked=%v: hash %#x, %d cmds}",
			parA, tickA, a.hash, a.count, parB, tickB, b.hash, b.count)
	}
	if !bytes.Equal(aTel, bTel) {
		t.Errorf("telemetry reports differ (%d vs %d bytes)", len(aTel), len(bTel))
	}
	if !bytes.Equal(aTr, bTr) {
		t.Errorf("trace logs differ (%d vs %d bytes)", len(aTr), len(bTr))
	}
}

// TestParallelSequentialEquivalence pins the parallel shard executor to
// the sequential inline path for every registered policy: same channels,
// same workload, Parallelism 1 vs 4 (and vs GOMAXPROCS), cycle skipping
// on. Byte-identical command hash, telemetry and traces required.
func TestParallelSequentialEquivalence(t *testing.T) {
	mixes := workload.RandomMixes(2, 4, 20260808)
	if testing.Short() {
		mixes = mixes[:1]
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		for mi := range mixes {
			name, mix, seed := name, mixes[mi], int64(31+mi)
			t.Run(fmt.Sprintf("%s/%s", name, mix.Name), func(t *testing.T) {
				t.Parallel()
				expectIdenticalShardRuns(t, name, mix, seed, 4, 1, 4, false, false)
			})
		}
	}
	// GOMAXPROCS-many workers (Parallelism=0) must agree too.
	t.Run("PAR-BS/gomaxprocs", func(t *testing.T) {
		t.Parallel()
		expectIdenticalShardRuns(t, "PAR-BS", workload.CaseStudyI(), 7, 4, 1, 0, false, false)
	})
	// Non-pow2 channel counts exercise the modulo route.
	t.Run("FR-FCFS/3-channels", func(t *testing.T) {
		t.Parallel()
		expectIdenticalShardRuns(t, "FR-FCFS", workload.CaseStudyI(), 7, 3, 1, 3, false, false)
	})
}

// TestParallelTickedSkippedEquivalence crosses the parallel executor with
// the next-event clock: a parallel skipping run must match a parallel
// ticked run byte for byte (the per-shard tick elision and the global
// jumps cannot change anything observable).
func TestParallelTickedSkippedEquivalence(t *testing.T) {
	for _, name := range []string{"PAR-BS", "FR-FCFS", "STFM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			expectIdenticalShardRuns(t, name, workload.CaseStudyI(), 13, 4, 4, 4, true, false)
		})
	}
}

// TestParallelCancellation proves a canceled context aborts a parallel
// sharded run promptly and that every shard worker goroutine exits — no
// goroutine may outlive RunIndependent, canceled or not.
func TestParallelCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel up front: the first checkpoint must observe it
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 400_000
	cfg.Geometry.Channels = 4
	cfg.Parallelism = 4
	cfg.Context = ctx
	_, err := RunIndependent(cfg, workload.CaseStudyI(), func() memctrl.Policy { return sched.NewPARBSDefault() })
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if ctxErr := context.Cause(ctx); ctxErr != nil && err != nil {
		// The run error must wrap the context's cancellation.
		if got := err.Error(); !bytes.Contains([]byte(got), []byte("canceled")) {
			t.Errorf("error %q does not report cancellation", got)
		}
	}
	waitForGoroutines(t, before)
}

// TestParallelGoroutineExit proves a completed parallel run leaves no
// worker goroutines behind.
func TestParallelGoroutineExit(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := quickCfg(8)
	cfg.Parallelism = 0 // GOMAXPROCS workers
	if _, err := RunIndependent(cfg, workload.Figure9Workload(), func() memctrl.Policy { return sched.NewFRFCFS() }); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline (worker exits race the pool join's return only in the runtime's
// bookkeeping, so allow a short settle).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d before\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
