package parbs

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedulerReuseError: scheduler instances are single-use; a second Run
// must fail loudly instead of silently reusing corrupted policy state.
func TestSchedulerReuseError(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	s := NewFRFCFS()
	if _, err := Run(quickSystem(4), w, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(quickSystem(4), w, s); err == nil {
		t.Fatal("reused scheduler accepted")
	} else if !strings.Contains(err.Error(), "single-use") {
		t.Errorf("reuse error %q does not explain single-use semantics", err)
	}
}

// TestZeroSchedulerError: the zero Scheduler value fails with guidance, not
// a nil-pointer panic.
func TestZeroSchedulerError(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(quickSystem(4), w, Scheduler{}); err == nil {
		t.Fatal("zero Scheduler accepted")
	}
}

// TestNewPARBSWithOptions: the error-returning constructor variant covers
// NewPARBS's panic path.
func TestNewPARBSWithOptions(t *testing.T) {
	if _, err := NewPARBSWithOptions(PARBSOptions{Batching: "bogus"}); err == nil {
		t.Error("malformed options accepted")
	}
	s, err := NewPARBSWithOptions(PARBSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "PAR-BS" {
		t.Errorf("default options built %q, want PAR-BS", s.Name())
	}
}

func TestParseDevice(t *testing.T) {
	for in, want := range map[string]Device{"": DDR2_800, "ddr2-800": DDR2_800, "ddr3-1333": DDR3_1333} {
		got, err := ParseDevice(in)
		if err != nil || got != want {
			t.Errorf("ParseDevice(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseDevice("rambus"); err == nil {
		t.Error("unknown device accepted")
	}
	if names := DeviceNames(); len(names) != 2 || names[0] != string(DDR2_800) {
		t.Errorf("DeviceNames() = %v", names)
	}
}

// TestRunContextCancellation: an already-expired deadline aborts the run
// mid-flight with the context's error.
func TestRunContextCancellation(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = RunContext(ctx, quickSystem(4), w, NewFRFCFS())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextTelemetryAndProgress drives the full option surface: the
// telemetry collector yields a parseable versioned report with slowdown
// series joined from the alone baselines, progress heartbeats cover shared
// and alone phases, and the command log streams the shared run's commands.
func TestRunContextTelemetryAndProgress(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryConfig{EpochCycles: 10_240})
	phases := map[string]bool{}
	var inFn atomic.Bool
	var commands int
	rep, err := RunContext(context.Background(), quickSystem(4), w, NewPARBS(PARBSOptions{}),
		WithTelemetry(tel),
		WithProgress(func(p Progress) {
			// Baselines run on helper goroutines, but their heartbeats are
			// relayed: fn is never entered while another call is in it.
			// The sleep widens each call so that an overlap would show.
			if !inFn.CompareAndSwap(false, true) {
				t.Error("progress fn entered while another call is in it")
			}
			phases[p.Phase] = true
			time.Sleep(50 * time.Microsecond)
			inFn.Store(false)
		}),
		WithCommandLog(func(ev CommandEvent) { commands++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Threads) != 4 {
		t.Fatalf("report has %d threads", len(rep.Threads))
	}
	if commands == 0 {
		t.Error("command log received nothing")
	}
	for _, ph := range []string{"warmup", "measure", "alone:mcf", "alone:lbm", "alone:hmmer", "alone:h264ref"} {
		if !phases[ph] {
			t.Errorf("no progress heartbeat for phase %q (saw %v)", ph, phases)
		}
	}
	if tel.Epochs() == 0 {
		t.Fatal("telemetry sampled no epochs")
	}
	data, err := tel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Schema  string `json:"schema"`
		Policy  string `json:"policy"`
		Epochs  int    `json:"epochs"`
		Threads []struct {
			Benchmark string    `json:"benchmark"`
			Slowdown  []float64 `json:"slowdown"`
		} `json:"threads"`
		Batches *struct {
			TotalFormed int64 `json:"total_formed"`
		} `json:"batches"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Schema != "parbs.telemetry/v1" || parsed.Policy != "PAR-BS" || parsed.Epochs == 0 {
		t.Errorf("report header wrong: %+v", parsed)
	}
	if len(parsed.Threads) != 4 || parsed.Threads[0].Benchmark != "mcf" {
		t.Fatalf("report threads wrong: %+v", parsed.Threads)
	}
	if len(parsed.Threads[0].Slowdown) != parsed.Epochs {
		t.Errorf("slowdown series has %d epochs, want %d", len(parsed.Threads[0].Slowdown), parsed.Epochs)
	}
	if parsed.Batches == nil || parsed.Batches.TotalFormed == 0 {
		t.Error("PAR-BS run reported no batches")
	}

	// Collectors are single-use, like schedulers.
	if _, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(), WithTelemetry(tel)); err == nil {
		t.Error("reused Telemetry collector accepted")
	}
}

// TestRunContextCancelDuringSharedRun: cancelling during the shared run
// returns an error wrapping ctx.Err(), stops the baselines running beside
// it, and leaves no goroutine and no half-claimed baseline behind.
func TestRunContextCancelDuringSharedRun(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := NewAloneCache()
	_, err = RunContext(ctx, quickSystem(4), w, NewFRFCFS(), WithAloneCache(cache),
		WithProgress(func(p Progress) {
			if p.Phase == "warmup" || p.Phase == "measure" {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "run canceled") {
		t.Fatalf("cancelled run returned %v, want the shared run's context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
	// Every claim was settled: a live run on the same cache completes. A
	// claim left in flight would block it, so it gets a deadline.
	live, stop := context.WithTimeout(context.Background(), time.Minute)
	defer stop()
	if _, err := RunContext(live, quickSystem(4), w, NewFRFCFS(), WithAloneCache(cache)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 4 {
		t.Errorf("cache holds %d baselines, want 4", cache.Len())
	}
}

// TestRunContextColdWarmBaselines: baselines simulated beside the shared
// run (cold cache) and read from the cache (warm) give identical reports on
// both channel layouts, and a repeated benchmark is simulated alone once.
func TestRunContextColdWarmBaselines(t *testing.T) {
	w, err := WorkloadFromNames("lbm", "mcf", "lbm", "hmmer")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ChannelMode{Lockstep, Independent} {
		sys := quickSystem(4)
		sys.ChannelMode = mode
		sys.Channels = 2
		cache := NewAloneCache()
		cold, err := RunContext(context.Background(), sys, w, NewPARBS(PARBSOptions{}), WithAloneCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		if cache.Len() != 3 {
			t.Errorf("%s: cache holds %d baselines, want 3 distinct benchmarks", mode, cache.Len())
		}
		warm, err := RunContext(context.Background(), sys, w, NewPARBS(PARBSOptions{}), WithAloneCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		if cold.String() != warm.String() {
			t.Errorf("%s: cold and warm reports differ:\n cold: %v\n warm: %v", mode, cold, warm)
		}
	}
}

// TestAloneCacheSharesBaselines: a shared AloneCache is filled by the first
// run, reused by a second run with an identical system shape (identical
// reports), and kept distinct across shapes (different seeds miss).
func TestAloneCacheSharesBaselines(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "mcf")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewAloneCache()
	first, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(), WithAloneCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Fatalf("cache has %d baselines after a 3-benchmark run, want 3", cache.Len())
	}
	// Second run: all baselines hit the cache; no alone phases are entered.
	var alonePhases int
	second, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(),
		WithAloneCache(cache),
		WithProgress(func(p Progress) {
			if strings.HasPrefix(p.Phase, "alone:") {
				alonePhases++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if alonePhases != 0 {
		t.Errorf("second run entered %d alone-phase heartbeats despite a warm cache", alonePhases)
	}
	if first.String() != second.String() {
		t.Errorf("cached baselines changed the report:\n first: %v\n second: %v", first, second)
	}
	// A different trace seed is a different shape: it must not hit.
	sys := quickSystem(4)
	sys.Seed = 99
	if _, err := RunContext(context.Background(), sys, w, NewFRFCFS(), WithAloneCache(cache)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 6 {
		t.Errorf("cache has %d baselines after a second shape, want 6", cache.Len())
	}
}

// TestTelemetryBeforeRun: JSON before the run completes is an error, not a
// panic or an empty report.
func TestTelemetryBeforeRun(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{})
	if _, err := tel.JSON(); err == nil {
		t.Error("JSON before run accepted")
	}
	if tel.Epochs() != 0 {
		t.Error("epochs non-zero before run")
	}
}
