package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestTelemetryDoesNotPerturbSchedule is the probe-enabled arm of the
// golden command-stream equivalence: attaching a telemetry probe must leave
// the DRAM command stream byte-identical for every registered policy.
func TestTelemetryDoesNotPerturbSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry equivalence sweep is long; skipped with -short")
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bare := commandStream(t, name, 1, nil)
			probe := telemetry.NewProbe(telemetry.Config{})
			probed := commandStream(t, name, 1, probe)
			if bare.count == 0 {
				t.Fatal("run issued no commands (vacuous)")
			}
			if bare != probed {
				t.Errorf("probe perturbs the schedule: bare {hash %#x, %d cmds} vs probed {hash %#x, %d cmds}",
					bare.hash, bare.count, probed.hash, probed.count)
			}
			if probe.Epochs() == 0 {
				t.Error("probe sampled no epochs; equivalence is vacuous")
			}
		})
	}
}

// TestProbedRunSamplesSanely runs PAR-BS with a probe and checks the
// sampled series are present and internally consistent.
func TestProbedRunSamplesSanely(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 400_000
	probe := telemetry.NewProbe(telemetry.Config{EpochDRAMCycles: 1024})
	cfg.Probe = probe
	pol, err := sched.ByName("PAR-BS")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, workload.CaseStudyI(), pol); err != nil {
		t.Fatal(err)
	}
	// Measured window: 400k CPU cycles / ratio 10 = 40k DRAM cycles ->
	// 39 full 1024-cycle epochs (the trailing partial epoch is not sampled).
	if got, want := probe.Epochs(), 39; got != want {
		t.Errorf("epochs = %d, want %d", got, want)
	}
	r := probe.Report(telemetry.ReportMeta{Policy: "PAR-BS", Workload: "CSI"})
	if len(r.Threads) != 4 || len(r.Banks) != cfg.Geometry.Banks {
		t.Fatalf("report shape: %d threads, %d banks; want 4 and %d",
			len(r.Threads), len(r.Banks), cfg.Geometry.Banks)
	}
	for _, series := range [][]float64{
		r.RowHitRate, r.BusUtilization, r.Threads[0].IPC, r.Threads[0].MCPI,
	} {
		if len(series) != r.Epochs {
			t.Fatalf("series length %d != %d epochs", len(series), r.Epochs)
		}
	}
	// A memory-intensive mix must show activity in every dimension.
	var ipcSum, busSum float64
	for i := 0; i < r.Epochs; i++ {
		ipcSum += r.Threads[0].IPC[i]
		busSum += r.BusUtilization[i]
	}
	if ipcSum == 0 || busSum == 0 {
		t.Errorf("dead series: sum(ipc)=%v sum(busutil)=%v", ipcSum, busSum)
	}
	if r.ReadLatency.Count == 0 {
		t.Error("no read latencies observed")
	}
	if r.Batches == nil || r.Batches.TotalFormed == 0 {
		t.Error("PAR-BS run produced no batch series")
	}
	if r.DroppedEpochs != 0 {
		t.Errorf("dropped %d epochs on a run that fits the ring", r.DroppedEpochs)
	}
}

// TestRunHonorsContextCancellation: a canceled context aborts the run at
// the next epoch checkpoint with an error wrapping the context's error.
func TestRunHonorsContextCancellation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 0
	cfg.MeasureCPUCycles = 2_000_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first checkpoint must abort
	cfg.Context = ctx
	if _, err := Run(cfg, workload.CaseStudyI(), frfcfsPolicy()); !errors.Is(err, context.Canceled) {
		t.Fatalf("run with canceled context returned %v, want context.Canceled", err)
	}
}

// TestRunWithoutContextUnaffected: a nil context never aborts.
func TestRunWithoutContextUnaffected(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 0
	cfg.MeasureCPUCycles = 100_000
	if _, err := Run(cfg, workload.CaseStudyI(), frfcfsPolicy()); err != nil {
		t.Fatal(err)
	}
}

// TestProgressHeartbeats: the progress hook fires at epoch checkpoints with
// monotonically advancing cycles and correct phase accounting.
func TestProgressHeartbeats(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 100_000
	var calls int
	var last Progress
	warmupSeen := false
	cfg.Progress = func(p Progress) {
		calls++
		if p.DRAMCycle <= last.DRAMCycle {
			t.Errorf("progress went backwards: %d after %d", p.DRAMCycle, last.DRAMCycle)
		}
		if p.Warmup {
			warmupSeen = true
		}
		last = p
	}
	if _, err := Run(cfg, workload.CaseStudyI(), frfcfsPolicy()); err != nil {
		t.Fatal(err)
	}
	// 12000 total DRAM cycles / 1024 checkpoint period = 11 heartbeats.
	if calls != 11 {
		t.Errorf("progress called %d times, want 11", calls)
	}
	if !warmupSeen {
		t.Error("no heartbeat reported the warmup phase")
	}
	if last.TotalDRAMCycles != 12_000 || last.CommandsIssued == 0 {
		t.Errorf("final heartbeat %+v looks wrong", last)
	}
}
