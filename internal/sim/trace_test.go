package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tracedStream mirrors commandStream with a lifecycle tracer attached:
// identical configuration, same digest, plus the tracer recording.
func tracedStream(t *testing.T, name string, seed int64, tr *trace.Tracer) streamDigest {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 300_000
	cfg.Tracer = tr
	h := fnv.New64a()
	var buf [8]byte
	var count int64
	cfg.CommandLog = func(ev memctrl.CommandEvent) {
		count++
		for _, v := range []int64{ev.Now, int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	pol, err := sched.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, workload.CaseStudyI(), pol); err != nil {
		t.Fatalf("%s seed %d traced: %v", name, seed, err)
	}
	return streamDigest{hash: h.Sum64(), count: count}
}

// TestTracedRunsPreserveCommandStream is the tracing golden-equivalence
// pin: attaching a lifecycle tracer must leave the DRAM command stream
// byte-identical for every registered policy — the tracer only observes.
func TestTracedRunsPreserveCommandStream(t *testing.T) {
	if testing.Short() {
		t.Skip("traced equivalence sweep is long; skipped with -short")
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bare := commandStream(t, name, 1, false, nil)
			tr := trace.NewTracer(trace.Config{})
			traced := tracedStream(t, name, 1, tr)
			if bare.count == 0 {
				t.Fatal("bare run issued no commands (vacuous)")
			}
			if bare != traced {
				t.Errorf("tracer perturbed the command stream: bare {hash %#x, %d cmds} vs traced {hash %#x, %d cmds}",
					bare.hash, bare.count, traced.hash, traced.count)
			}
			if tr.Events() == 0 {
				t.Error("tracer recorded nothing; equivalence is vacuous")
			}
		})
	}
}

// runTraced executes one simulation with a fresh tracer and returns the
// recorded log.
func runTraced(t *testing.T, polName string, mix workload.Mix, seed int64) *trace.Log {
	t.Helper()
	cfg := DefaultConfig(len(mix.Benchmarks))
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 400_000
	tr := trace.NewTracer(trace.Config{})
	cfg.Tracer = tr
	pol, err := sched.ByName(polName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, mix, pol); err != nil {
		t.Fatalf("%s on %s: %v", polName, mix.Name, err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; the run outgrew the buffer", tr.Dropped())
	}
	return tr.Log()
}

// TestTraceLifecycleOrdering: on a real PAR-BS run every completed read's
// lifecycle must be well-formed — arrival before mark and first command,
// first command before completion — and read commands must carry the
// thread's rank at issue. A mark AFTER the first command is legitimate (an
// unmarked request issues when its bank has no marked candidate, then a
// batch formation sweeps it up mid-flight), so only arrival anchors it.
func TestTraceLifecycleOrdering(t *testing.T) {
	log := runTraced(t, "PAR-BS", workload.CaseStudyI(), 1)
	type life struct {
		arrive, mark, firstCmd, complete int64
		seen                             bool
	}
	lives := make(map[int64]*life)
	ranked := 0
	var batches, drains int
	for _, ev := range log.Events {
		switch ev.Kind {
		case trace.KindArrive:
			lives[ev.Req] = &life{arrive: ev.Cycle, mark: -1, firstCmd: -1, complete: -1, seen: true}
		case trace.KindMark:
			l := lives[ev.Req]
			if l == nil {
				t.Fatalf("request %d marked before arrival was traced", ev.Req)
			}
			if l.mark < 0 {
				l.mark = ev.Cycle
			}
		case trace.KindCommand:
			if ev.Req < 0 {
				continue // controller-initiated refresh sequencing
			}
			if ev.Rank >= 0 {
				ranked++
			}
			if l := lives[ev.Req]; l != nil && l.firstCmd < 0 {
				l.firstCmd = ev.Cycle
			}
		case trace.KindComplete:
			if l := lives[ev.Req]; l != nil {
				l.complete = ev.Cycle
			}
		case trace.KindBatch:
			batches++
		case trace.KindBatchEnd:
			drains++
		}
	}
	completed := 0
	for id, l := range lives {
		if l.complete < 0 {
			continue // still in flight at run end
		}
		completed++
		if l.mark >= 0 && l.mark < l.arrive {
			t.Errorf("request %d marked at %d before arrival %d", id, l.mark, l.arrive)
		}
		if l.firstCmd >= 0 && l.firstCmd < l.arrive {
			t.Errorf("request %d first command %d before arrival %d", id, l.firstCmd, l.arrive)
		}
		if l.firstCmd >= 0 && l.complete < l.firstCmd {
			t.Errorf("request %d completed %d before first command %d", id, l.complete, l.firstCmd)
		}
	}
	if completed == 0 {
		t.Fatal("no completed requests traced; test is vacuous")
	}
	if batches == 0 || drains == 0 {
		t.Errorf("PAR-BS run traced %d batch formations, %d drains; want both > 0", batches, drains)
	}
	if ranked == 0 {
		t.Error("no command carried a thread rank; rank-at-issue is untraced")
	}
}

// attackMix is the memory-attack workload of the audit test: matlab is the
// paper's streaming hog (maximal row-buffer locality), the other three are
// its victims.
func attackMix(t *testing.T) workload.Mix {
	t.Helper()
	mix, err := workload.MixOf("attack", "matlab", "omnetpp", "hmmer", "sjeng")
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// independentMix is the Independent arm of the audit test: eight memory-
// intensive benchmarks on eight independently scheduled channels, where
// every channel's PAR-BS forms batches of its own.
func independentMix(t *testing.T) workload.Mix {
	t.Helper()
	mix, err := workload.MixOf("independent-8ch", "omnetpp", "mcf", "libquantum", "lbm",
		"milc", "soplex", "leslie3d", "GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// runTracedIndependent is runTraced for an Independent multi-channel run
// (parbs-sim -channel-mode independent -channels N -cycles 300000).
func runTracedIndependent(t *testing.T, polName string, mix workload.Mix, channels int) *trace.Log {
	t.Helper()
	cfg := DefaultConfig(len(mix.Benchmarks))
	cfg.MeasureCPUCycles = 300_000
	cfg.Geometry.Channels = channels
	cfg.Parallelism = 1
	tr := trace.NewTracer(trace.Config{})
	cfg.Tracer = tr
	factory := func() memctrl.Policy {
		pol, err := sched.ByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	if _, err := RunIndependent(cfg, mix, factory); err != nil {
		t.Fatalf("%s on %s: %v", polName, mix.Name, err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; the run outgrew the buffer", tr.Dropped())
	}
	return tr.Log()
}

// expectBoundHolds asserts a PAR-BS audit is non-vacuous and its §4.3
// bound held.
func expectBoundHolds(t *testing.T, mix string, par *analysis.Audit) {
	t.Helper()
	if par.Requests == 0 || par.Batches == 0 {
		t.Fatalf("PAR-BS run traced %d requests, %d batches; vacuous", par.Requests, par.Batches)
	}
	if !par.Verdict.Holds {
		t.Errorf("PAR-BS starvation bound violated on %s: %+v", mix, par.Verdict)
	}
	if par.Verdict.MaxBatchesWaited > par.Verdict.BatchWaitBound {
		t.Errorf("batch-wait: observed %d > bound %d", par.Verdict.MaxBatchesWaited, par.Verdict.BatchWaitBound)
	}
}

// TestStarvationAuditEndToEnd drives the paper's §4.3 claim through the
// whole pipeline on two workloads: under PAR-BS no request waits more batch
// formations than the Marking-Cap bound allows and every latency fits the
// derived envelope, while FR-FCFS forms no batches and so offers no bound
// at all — exactly the starvation the attack workload exploits. The
// Independent arm holds PAR-BS to the same bound on eight channels, each
// forming its own batches.
func TestStarvationAuditEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("audit runs five simulations; skipped with -short")
	}
	mixes := []workload.Mix{workload.CaseStudyI(), attackMix(t)}
	for _, mix := range mixes {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			t.Parallel()
			par := analysis.FromLog(runTraced(t, "PAR-BS", mix, 1)).Audit()
			expectBoundHolds(t, mix.Name, par)

			fr := analysis.FromLog(runTraced(t, "FR-FCFS", mix, 1)).Audit()
			if fr.Verdict.Batched || fr.Verdict.Holds {
				t.Errorf("FR-FCFS audit should report no bound: %+v", fr.Verdict)
			}
			t.Logf("%s worst read latency: PAR-BS %d cycles (envelope %d), FR-FCFS %d cycles",
				mix.Name, par.Verdict.MaxDelayCycles, par.Verdict.DelayBoundCycles, fr.Verdict.MaxDelayCycles)
		})
	}
	t.Run("independent-8ch", func(t *testing.T) {
		t.Parallel()
		mix := independentMix(t)
		par := analysis.FromLog(runTracedIndependent(t, "PAR-BS", mix, 8)).Audit()
		if par.Meta.Channels != 8 {
			t.Fatalf("traced %d channels, want 8", par.Meta.Channels)
		}
		expectBoundHolds(t, mix.Name, par)
		t.Logf("%s: %d batch formations on 8 channels, worst wait %d of bound %d",
			mix.Name, par.Batches, par.Verdict.MaxBatchesWaited, par.Verdict.BatchWaitBound)
	})
}
