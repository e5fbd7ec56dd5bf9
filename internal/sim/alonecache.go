package sim

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// AloneCache memoizes alone-run baselines. A baseline is a deterministic
// function of the benchmark, the channel layout and every Config field that
// survives runAlone's single-core normalization — not of the scheduler, the
// co-runners or the core count — so every run on one memory system shares
// its baselines. The zero value is an empty cache, safe for concurrent use;
// concurrent misses on one key may each simulate it.
type AloneCache struct {
	mu sync.Mutex
	m  map[aloneKey]metrics.ThreadOutcome
}

// aloneKey is the whole normalized system an alone run simulates. Cores and
// the controller's thread count, channel stamp and request-ID striding are
// overwritten by runAlone and run, so they are zeroed; observers, Context
// and Progress never change the outcome, and neither does ForceTicked (the
// skipping and ticked loops are byte-identical).
type aloneKey struct {
	benchmark string
	ganged    bool
	timing    dram.Timing
	geometry  dram.Geometry
	ctrl      memctrl.Config
	core      cpu.Config
	ratio     int64
	warmup    int64
	measure   int64
	overhead  int64
	seed      int64
}

// Len reports the number of cached baselines.
func (c *AloneCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Alone returns p's baseline on cfg's memory system — RunAlone's when ganged,
// RunAloneIndependent's otherwise — simulating it on a miss. cfg's Context
// and Progress apply to that simulation only.
func (c *AloneCache) Alone(cfg Config, p workload.Profile, ganged bool) (metrics.ThreadOutcome, error) {
	ctrl := cfg.Ctrl
	ctrl.Threads, ctrl.Channel, ctrl.IDBase, ctrl.IDStride = 0, 0, 0, 0
	key := aloneKey{
		benchmark: p.Name,
		ganged:    ganged,
		timing:    cfg.Timing,
		geometry:  cfg.Geometry,
		ctrl:      ctrl,
		core:      cfg.Core,
		ratio:     cfg.CPUCyclesPerDRAM,
		warmup:    cfg.WarmupCPUCycles,
		measure:   cfg.MeasureCPUCycles,
		overhead:  cfg.CompletionOverheadCPU,
		seed:      cfg.Seed,
	}
	c.mu.Lock()
	out, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return out, nil
	}
	out, err := runAlone(cfg, p, ganged)
	if err != nil {
		return out, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[aloneKey]metrics.ThreadOutcome)
	}
	c.m[key] = out
	c.mu.Unlock()
	return out, nil
}
