package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestAloneCacheNormalizedKey: a hit returns RunAlone's outcome without
// allocating (every parbs.RunContext call looks its baselines up), systems
// that differ only in fields the alone run normalizes away share an entry,
// and the channel layout does not.
func TestAloneCacheNormalizedKey(t *testing.T) {
	cfg := quickCfg(4)
	p := workload.MustByName("hmmer")
	want, err := RunAlone(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var c AloneCache
	if got, err := c.Alone(cfg, p, true); err != nil || got != want {
		t.Fatalf("miss = %+v, %v; want RunAlone's %+v", got, err, want)
	}
	var hit bool
	if n := testing.AllocsPerRun(100, func() {
		out, err := c.Alone(cfg, p, true)
		hit = err == nil && out == want
	}); n != 0 || !hit {
		t.Errorf("hit allocates %.1f times per call (equal to RunAlone: %v), want 0", n, hit)
	}
	same := cfg
	same.Cores, same.Ctrl.Threads, same.ForceTicked = 16, 16, true
	if out, err := c.Alone(same, p, true); err != nil || out != want || c.Len() != 1 {
		t.Errorf("core count and ForceTicked must not split the key: len %d, err %v", c.Len(), err)
	}
	if _, err := c.Alone(cfg, p, false); err != nil || c.Len() != 2 {
		t.Errorf("independent baseline shares the lock-step entry: len %d, err %v", c.Len(), err)
	}
}

// TestAloneCacheConcurrentLookupsSimulateOnce: lookups of one cold key from
// many goroutines simulate it once — only one lookup's Progress hook sees
// heartbeats — and every lookup returns that run's outcome.
func TestAloneCacheConcurrentLookupsSimulateOnce(t *testing.T) {
	cfg := quickCfg(4)
	p := workload.MustByName("mcf")
	var c AloneCache
	const n = 8
	beats := make([]atomic.Int64, n)
	outs := make([]metrics.ThreadOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := cfg
			own.Progress = func(Progress) { beats[i].Add(1) }
			outs[i], errs[i] = c.Alone(own, p, true)
		}()
	}
	wg.Wait()
	simulated := 0
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if outs[i] != outs[0] {
			t.Errorf("lookup %d returned a different outcome", i)
		}
		if beats[i].Load() > 0 {
			simulated++
		}
	}
	if simulated != 1 || c.Len() != 1 {
		t.Errorf("%d of %d lookups simulated the key, cache holds %d; want 1 and 1", simulated, n, c.Len())
	}
}

// TestAloneCacheFailedRunNotCached: a run that fails leaves no entry; a
// waiter whose context is done returns its error, and a waiter whose
// context is live simulates the key itself.
func TestAloneCacheFailedRunNotCached(t *testing.T) {
	cfg := quickCfg(4)
	p := workload.MustByName("hmmer")
	want, err := RunAlone(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var c AloneCache
	key := newAloneKey(cfg, p, true)
	c.mu.Lock()
	r := c.claimLocked(key)
	c.mu.Unlock()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	deadCfg := cfg
	deadCfg.Context = dead
	if _, err := c.Alone(deadCfg, p, true); !errors.Is(err, context.Canceled) {
		t.Errorf("waiter with a done context returned %v, want context.Canceled", err)
	}
	type result struct {
		out metrics.ThreadOutcome
		err error
	}
	live := make(chan result)
	go func() {
		liveCfg := cfg
		liveCfg.Context = context.Background()
		out, err := c.Alone(liveCfg, p, true)
		live <- result{out, err}
	}()
	c.finish(key, r, metrics.ThreadOutcome{}, errors.New("owner failed"))
	if got := <-live; got.err != nil || got.out != want {
		t.Errorf("live waiter after a failed run = %v (equal to RunAlone: %v), want RunAlone's outcome", got.err, got.out == want)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d baselines, want the live waiter's 1", c.Len())
	}
}

// TestAloneCachePanicSettlesClaim: a lookup whose simulation panics (here
// through its Progress hook) re-raises the panic and drops its claim, so a
// later lookup of the key simulates it instead of waiting forever.
func TestAloneCachePanicSettlesClaim(t *testing.T) {
	cfg := quickCfg(4)
	p := workload.MustByName("mcf")
	var c AloneCache
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a panicking alone run did not panic the lookup")
			}
		}()
		hook := cfg
		hook.Progress = func(Progress) { panic("progress hook") }
		c.Alone(hook, p, true)
	}()
	if _, err := c.Alone(liveCfg(t, cfg), p, true); err != nil || c.Len() != 1 {
		t.Errorf("lookup after the panic: err %v, cache holds %d; want nil and 1", err, c.Len())
	}
}

// TestAloneBatchPanic: a panic in a batch — from its progress hook here,
// delivered on the caller or raised inside a run the caller took — reaches
// the caller; once the caller stops the batch no claim is left in flight
// and no helper runs, so later lookups of its keys complete.
func TestAloneBatchPanic(t *testing.T) {
	cfg := quickCfg(4)
	ps := []workload.Profile{workload.MustByName("lbm"), workload.MustByName("mcf"), workload.MustByName("hmmer")}
	start := runtime.NumGoroutine()
	var c AloneCache
	func() {
		b := c.Start(cfg, ps, true, func(bench string, _ Progress) {
			if bench == "mcf" {
				panic("progress hook")
			}
		})
		defer func() {
			if recover() == nil {
				t.Error("Wait did not panic")
			}
		}()
		defer b.Stop()
		b.Wait()
	}()
	waitGoroutines(t, start)
	c.mu.Lock()
	for key, e := range c.m {
		if e.run != nil {
			t.Errorf("claim on %s left in flight", key.benchmark)
		}
	}
	c.mu.Unlock()
	for _, p := range ps {
		if _, err := c.Alone(liveCfg(t, cfg), p, true); err != nil {
			t.Fatal(err)
		}
	}
}

// liveCfg is cfg under a deadline, so that a lookup waiting on a claim
// nobody settles fails instead of hanging the test.
func liveCfg(t *testing.T, cfg Config) Config {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	cfg.Context = ctx
	return cfg
}

// TestAloneBatchRelaysOnCaller: a batch simulates each distinct key of its
// profiles once, returns the baselines in profile order, and delivers every
// heartbeat — helpers' included — only from Relay and Wait, one at a time.
func TestAloneBatchRelaysOnCaller(t *testing.T) {
	cfg := quickCfg(4)
	ps := []workload.Profile{workload.MustByName("lbm"), workload.MustByName("mcf"),
		workload.MustByName("lbm"), workload.MustByName("hmmer")}
	for _, ganged := range []bool{true, false} {
		var c AloneCache
		var inCaller, inFn atomic.Bool
		seen := map[string]int{}
		b := c.Start(cfg, ps, ganged, func(bench string, _ Progress) {
			if !inCaller.Load() {
				t.Error("heartbeat delivered outside Relay and Wait")
			}
			if !inFn.CompareAndSwap(false, true) {
				t.Error("progress entered while another call is in it")
			}
			seen[bench]++
			inFn.Store(false)
		})
		// The caller's own work (here, the reference baselines) runs while
		// the helpers simulate; none of their heartbeats may arrive during it.
		want := make([]metrics.ThreadOutcome, len(ps))
		for i, p := range ps {
			var err error
			if want[i], err = runAlone(cfg, p, ganged); err != nil {
				t.Fatal(err)
			}
		}
		inCaller.Store(true)
		b.Relay()
		outs, err := b.Wait()
		inCaller.Store(false)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ps {
			if outs[i] != want[i] {
				t.Errorf("ganged %v: baseline %d (%s) differs from runAlone's", ganged, i, p.Name)
			}
		}
		if c.Len() != 3 || len(seen) != 3 {
			t.Errorf("ganged %v: cache holds %d, heartbeats from %v; want 3 distinct benchmarks", ganged, c.Len(), seen)
		}
		// A warm batch starts nothing and reads the cache.
		again, err := c.Start(cfg, ps, ganged, nil).Wait()
		if err != nil || again[2] != outs[2] {
			t.Errorf("ganged %v: warm batch = %v, %v", ganged, again, err)
		}
	}
}

// TestAloneBatchStop: stopping a batch mid-run settles every claim — none
// cached, none left in flight — and returns only after its helpers exit.
func TestAloneBatchStop(t *testing.T) {
	cfg := quickCfg(4)
	// Long enough that no helper can finish before Stop; a cancelled run
	// ends at its first checkpoint.
	cfg.MeasureCPUCycles = 100_000_000
	ps := []workload.Profile{workload.MustByName("lbm"), workload.MustByName("mcf"), workload.MustByName("hmmer")}
	start := runtime.NumGoroutine()
	var c AloneCache
	b := c.Start(cfg, ps, true, nil)
	b.Stop()
	b.Stop()
	c.mu.Lock()
	left := len(c.m)
	c.mu.Unlock()
	if left != 0 {
		t.Errorf("stopped batch left %d cache entries (claims or baselines), want 0", left)
	}
	if _, err := b.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait after Stop = %v, want context.Canceled", err)
	}
	waitGoroutines(t, start)
}

// waitGoroutines fails t unless the goroutine count falls back to want
// within a few seconds (exited goroutines are reaped asynchronously).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
