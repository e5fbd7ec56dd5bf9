package parbs

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CommandEvent describes one issued DRAM command, delivered to the
// WithCommandLog hook. Commands from the shared run only; alone baseline
// runs are never logged.
type CommandEvent struct {
	// Cycle is the DRAM cycle the command issued.
	Cycle int64
	// Command is the DRAM command mnemonic (ACT, PRE, RD, WR, REF).
	Command string
	// Bank and Row locate the command's target.
	Bank int
	Row  int64
	// Thread is the issuing thread, or -1 for controller-initiated
	// commands (refresh sequencing).
	Thread int
	// RequestID is the serviced request's arrival sequence number, or -1.
	RequestID int64
	// Channel is the issuing controller's channel on an Independent-channel
	// system; always 0 under Lockstep (one ganged command stream).
	Channel int
}

// Progress is a heartbeat snapshot delivered to the WithProgress hook at
// every epoch checkpoint of every simulation phase.
type Progress struct {
	// Phase is "warmup" or "measure" during the shared run, then
	// "alone:<benchmark>" during each baseline run.
	Phase string
	// CPUCycles and TotalCPUCycles locate the current phase's run;
	// CPUCycles/TotalCPUCycles is the fraction complete.
	CPUCycles      int64
	TotalCPUCycles int64
	// CommandsIssued is the run's cumulative DRAM command count.
	CommandsIssued int64
	// PendingReads is the request-buffer occupancy at the checkpoint,
	// summed over channels on an Independent-channel system.
	PendingReads int
	// PendingPerChannel is the per-channel request-buffer occupancy,
	// indexed by channel, on an Independent-channel system; nil under
	// Lockstep.
	PendingPerChannel []int
}

// AloneCache memoizes alone-run baselines across RunContext calls. A run's
// slowdown metrics need one single-thread baseline per distinct benchmark,
// and those baselines depend only on the benchmark and the system shape —
// not on the scheduler or co-runners — so services and sweeps that simulate
// many workloads on the same system can share one cache and skip the
// (dominant) baseline cost on every run after the first. Safe for
// concurrent use by multiple simultaneous runs.
type AloneCache struct {
	mu sync.Mutex
	m  map[aloneCacheKey]metrics.ThreadOutcome
}

// aloneCacheKey captures everything an alone run's outcome depends on: the
// benchmark and every configuration field that survives sim.RunAlone's
// single-core normalization. Threads is normalized to 1 so systems that
// differ only in core count (but share a memory-system shape) hit the same
// entries.
type aloneCacheKey struct {
	benchmark string
	// independent distinguishes Independent-channel baselines (sharded
	// engine, per-channel FR-FCFS) from Lockstep ones.
	independent bool
	timing      dram.Timing
	geometry    dram.Geometry
	ctrl        memctrl.Config
	core        cpu.Config
	ratio       int64
	warmup      int64
	measure     int64
	overhead    int64
	seed        int64
}

// NewAloneCache returns an empty baseline cache.
func NewAloneCache() *AloneCache {
	return &AloneCache{m: make(map[aloneCacheKey]metrics.ThreadOutcome)}
}

// Len reports the number of cached baselines.
func (c *AloneCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func aloneKeyFor(cfg sim.Config, benchmark string, independent bool) aloneCacheKey {
	ctrl := cfg.Ctrl
	ctrl.Threads = 1
	return aloneCacheKey{
		benchmark:   benchmark,
		independent: independent,
		timing:      cfg.Timing,
		geometry:    cfg.Geometry,
		ctrl:        ctrl,
		core:        cfg.Core,
		ratio:       cfg.CPUCyclesPerDRAM,
		warmup:      cfg.WarmupCPUCycles,
		measure:     cfg.MeasureCPUCycles,
		overhead:    cfg.CompletionOverheadCPU,
		seed:        cfg.Seed,
	}
}

func (c *AloneCache) get(cfg sim.Config, benchmark string, independent bool) (metrics.ThreadOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[aloneKeyFor(cfg, benchmark, independent)]
	return out, ok
}

func (c *AloneCache) put(cfg sim.Config, benchmark string, independent bool, out metrics.ThreadOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[aloneKeyFor(cfg, benchmark, independent)] = out
}

// WithAloneCache shares alone-run baselines across runs through c. Runs
// that find their benchmarks' baselines in the cache skip the alone
// simulations entirely; misses are computed once and inserted.
func WithAloneCache(c *AloneCache) RunOption {
	return func(rc *runConfig) { rc.aloneCache = c }
}

// runConfig collects the RunOption settings.
type runConfig struct {
	tel        *Telemetry
	tracer     *Tracer
	cmdLog     func(CommandEvent)
	progress   func(Progress)
	aloneCache *AloneCache
}

// RunOption customizes a RunContext call.
type RunOption func(*runConfig)

// WithTelemetry attaches a telemetry collector to the run. The collector
// samples time series on its epoch during the measured window and renders
// them as a versioned JSON report after the run; see Telemetry. Each
// collector serves one run.
func WithTelemetry(t *Telemetry) RunOption {
	return func(rc *runConfig) { rc.tel = t }
}

// WithCommandLog streams every DRAM command of the shared run to fn
// (timelines, debugging). The hook runs on the simulation's hot path;
// keep it cheap.
func WithCommandLog(fn func(CommandEvent)) RunOption {
	return func(rc *runConfig) { rc.cmdLog = fn }
}

// WithProgress delivers heartbeat snapshots to fn at every epoch checkpoint,
// across the shared run and each alone baseline run. fn must not block.
func WithProgress(fn func(Progress)) RunOption {
	return func(rc *runConfig) { rc.progress = fn }
}

// WithParallelism has no effect: every run steps its channels inline on the
// calling goroutine (DESIGN.md §14).
//
// Deprecated: the shard worker pool it sized was removed; the option
// remains only so existing callers compile.
func WithParallelism(n int) RunOption {
	return func(*runConfig) {}
}

// Run simulates the workload on the system under the scheduler, including
// the per-benchmark alone runs needed for slowdown metrics. It is
// RunContext with a background context and no options.
func Run(sys System, w Workload, s Scheduler) (Report, error) {
	return RunContext(context.Background(), sys, w, s)
}

// RunContext is Run with cooperative cancellation and optional observers.
// ctx is polled at every epoch checkpoint (roughly every 10k CPU cycles);
// cancellation aborts the run mid-flight with an error wrapping ctx.Err().
// The scheduler must be freshly constructed: instances are single-use and
// reuse is reported as an error.
func RunContext(ctx context.Context, sys System, w Workload, s Scheduler, opts ...RunOption) (Report, error) {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	cfg, err := sys.toSim()
	if err != nil {
		return Report{}, err
	}
	independent := sys.ChannelMode == Independent
	if len(w.mix.Benchmarks) != cfg.Cores {
		return Report{}, fmt.Errorf("parbs: workload %q has %d benchmarks for %d cores",
			w.mix.Name, len(w.mix.Benchmarks), cfg.Cores)
	}
	cfg.Context = ctx
	if rc.tel != nil {
		probe, err := rc.tel.bind(cfg.CPUCyclesPerDRAM)
		if err != nil {
			return Report{}, err
		}
		cfg.Probe = probe
	}
	if rc.tracer != nil {
		tr, err := rc.tracer.bind()
		if err != nil {
			return Report{}, err
		}
		cfg.Tracer = tr
	}
	if rc.cmdLog != nil {
		fn := rc.cmdLog
		cfg.CommandLog = func(ev memctrl.CommandEvent) {
			fn(CommandEvent{
				Cycle:     ev.Now,
				Command:   ev.Cmd.String(),
				Bank:      ev.Bank,
				Row:       ev.Row,
				Thread:    ev.Thread,
				RequestID: ev.ReqID,
				Channel:   ev.Channel,
			})
		}
	}
	// phase mutates between simulation phases; the progress adapter reads
	// it at delivery time.
	phase := "measure"
	if rc.progress != nil {
		fn := rc.progress
		cfg.Progress = func(p sim.Progress) {
			ph := phase
			if ph == "measure" && p.Warmup {
				ph = "warmup"
			}
			fn(Progress{
				Phase:             ph,
				CPUCycles:         p.CPUCycle,
				TotalCPUCycles:    p.TotalDRAMCycles * cfg.CPUCyclesPerDRAM,
				CommandsIssued:    p.CommandsIssued,
				PendingReads:      p.PendingReads,
				PendingPerChannel: p.PendingPerChannel,
			})
		}
	}
	if err := s.acquire(); err != nil {
		return Report{}, err
	}
	var res sim.Result
	if independent {
		res, err = sim.RunIndependent(cfg, w.mix, s.factory)
	} else {
		res, err = sim.Run(cfg, w.mix, s.policy)
	}
	if err != nil {
		return Report{}, err
	}
	if rc.tracer != nil {
		rc.tracer.finish()
	}
	// Alone baselines: probe and command log are shared-run-only (RunAlone
	// strips them); context and progress carry through.
	alone := map[string]metrics.ThreadOutcome{}
	var cs []metrics.Comparison
	aloneMCPI := make([]float64, len(res.Threads))
	rep := Report{Scheduler: res.Policy, BusUtilization: res.BusUtilization()}
	for i, th := range res.Threads {
		base, ok := alone[th.Benchmark]
		if !ok && rc.aloneCache != nil {
			if base, ok = rc.aloneCache.get(cfg, th.Benchmark, independent); ok {
				alone[th.Benchmark] = base
			}
		}
		if !ok {
			phase = "alone:" + th.Benchmark
			if independent {
				base, err = sim.RunAloneIndependent(cfg, w.mix.Benchmarks[i])
			} else {
				base, err = sim.RunAlone(cfg, w.mix.Benchmarks[i])
			}
			if err != nil {
				return Report{}, err
			}
			alone[th.Benchmark] = base
			if rc.aloneCache != nil {
				rc.aloneCache.put(cfg, th.Benchmark, independent, base)
			}
		}
		aloneMCPI[i] = base.CPU.MCPI()
		c := metrics.Comparison{Alone: base, Shared: th}
		cs = append(cs, c)
		rep.Threads = append(rep.Threads, ThreadReport{
			Benchmark:   th.Benchmark,
			MemSlowdown: c.MemSlowdown(),
			IPC:         th.CPU.IPC(),
			BLP:         th.Mem.BLP(),
			RowHitRate:  th.Mem.RowHitRate(),
			ASTPerReq:   th.CPU.ASTPerReq(),
		})
	}
	rep.Unfairness = metrics.Unfairness(cs)
	rep.WeightedSpeedup = metrics.WeightedSpeedup(cs)
	rep.HmeanSpeedup = metrics.HmeanSpeedup(cs)
	rep.WorstCaseLatency = metrics.WorstCaseLatency(cs, cfg.CPUCyclesPerDRAM)
	if rc.tel != nil {
		rc.tel.finish(res.Policy, w.mix.Name, workload.Names(w.mix.Benchmarks), aloneMCPI)
	}
	return rep, nil
}
