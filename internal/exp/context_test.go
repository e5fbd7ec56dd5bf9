package exp

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dram"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestParallelForRunsAll(t *testing.T) {
	var n int64
	if err := parallelFor(context.Background(), 100, func(i int) error {
		atomic.AddInt64(&n, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("ran %d of 100", n)
	}
	if err := parallelFor(context.Background(), 0, func(int) error { return nil }); err != nil {
		t.Errorf("empty parallelFor errored: %v", err)
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := parallelFor(context.Background(), 50, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want boom", err)
	}
}

// TestParallelForPreCanceled: a canceled context schedules no work at all
// and reports the context's error.
func TestParallelForPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n int64
	err := parallelFor(ctx, 100, func(i int) error {
		atomic.AddInt64(&n, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Errorf("canceled parallelFor still ran %d indexes", n)
	}
}

// TestParallelForCancellationStopsScheduling: canceling mid-flight lets
// in-flight calls finish but stops new indexes from being scheduled — at
// most one extra index per worker can slip in between the cancel and the
// workers' next pull.
func TestParallelForCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 100_000
	var ran int64
	err := parallelFor(ctx, n, func(i int) error {
		if atomic.AddInt64(&ran, 1) == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
	// Every worker may have had one index in flight when cancel hit, and the
	// canceling call itself counts; anything near n means cancel was ignored.
	if limit := int64(2 * (runtime.GOMAXPROCS(0) + 1)); ran > limit {
		t.Errorf("ran %d of %d indexes after cancellation (limit %d)", ran, n, limit)
	}
}

func TestAloneCacheHitsByChannelShape(t *testing.T) {
	x := NewContext(true)
	cfg := x.Config(4)
	p := workload.MustByName("gromacs")
	first, err := x.Alone(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := x.Alone(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if first.CPU != again.CPU {
		t.Error("cache returned a different outcome")
	}
	// Different channel shape must be a separate cache entry.
	cfg8 := x.Config(8)
	other, err := x.Alone(cfg8, p)
	if err != nil {
		t.Fatal(err)
	}
	if other.CPU == first.CPU {
		t.Error("8-core (2-channel) baseline identical to 1-channel; cache key too coarse")
	}
}

// TestAloneCacheKeysWholeSystem: on one Context, configurations that differ
// only in a memory-system parameter each get their own baseline.
func TestAloneCacheKeysWholeSystem(t *testing.T) {
	x := NewContext(true)
	p := workload.MustByName("mcf")
	base, err := x.Alone(x.Config(4), p)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(cfg *sim.Config)
	}{
		{"Geometry.Banks", func(cfg *sim.Config) { cfg.Geometry.Banks = 4 }},
		{"Ctrl.ClosedPage", func(cfg *sim.Config) { cfg.Ctrl.ClosedPage = true }},
		{"Timing.TREFI", func(cfg *sim.Config) { cfg.Timing.TREFI = 1560 }},
		{"Timing", func(cfg *sim.Config) {
			cfg.Timing = dram.DDR3_1333()
			cfg.CPUCyclesPerDRAM = 6
		}},
	}
	for _, m := range mutations {
		cfg := x.Config(4)
		m.mutate(&cfg)
		n := x.alone.Len()
		out, err := x.Alone(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if x.alone.Len() != n+1 {
			t.Errorf("%s: cache grew %d -> %d, want a new entry", m.name, n, x.alone.Len())
		}
		if out == base {
			t.Errorf("%s: baseline identical to the base system's; cache key too coarse", m.name)
		}
	}
}

// TestSweepReusesCachedBaselines: X1's base arm (8 banks) is T3's system, so
// after T3 only the 4- and 16-bank arms add CSI baselines.
func TestSweepReusesCachedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick-fidelity simulations")
	}
	x := NewContext(true)
	for _, id := range []string{"T3", "X1"} {
		n := x.alone.Len()
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(x); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		added := x.alone.Len() - n
		want := len(workload.Benchmarks())
		if id == "X1" {
			want = 2 * len(workload.CaseStudyI().Benchmarks)
		}
		if added != want {
			t.Errorf("%s added %d baselines, want %d", id, added, want)
		}
	}
}

// TestExperimentsHonorCanceledContext: every experiment that simulates
// stops with the context's error when Ctx is already canceled.
func TestExperimentsHonorCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	analytic := map[string]bool{"F1": true, "F2": true, "F3": true, "T1": true, "T2": true}
	for _, e := range All() {
		if analytic[e.ID] {
			continue
		}
		x := NewContext(true)
		x.Ctx = ctx
		if _, err := e.Run(x); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with a canceled context returned %v, want context.Canceled", e.ID, err)
		}
	}
}

func TestRunMixReportsPolicyError(t *testing.T) {
	x := NewContext(true)
	cfg := x.Config(4)
	cfg.Cores = 3 // mismatch vs 4-benchmark mix
	_, err := x.RunMix(cfg, workload.CaseStudyI(), sched.NewFCFS())
	if err == nil {
		t.Error("mismatched mix accepted")
	}
}

func TestContextConfigFidelity(t *testing.T) {
	quick := NewContext(true).Config(4)
	full := NewContext(false).Config(4)
	if quick.MeasureCPUCycles >= full.MeasureCPUCycles {
		t.Error("quick context must simulate fewer cycles")
	}
	if quick.Cores != 4 || full.Cores != 4 {
		t.Error("core count must be preserved")
	}
}
