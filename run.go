package parbs

import (
	"context"
	"fmt"

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
	// Phase is "warmup" or "measure" during the shared run and
	// "alone:<benchmark>" during a baseline run. Baselines run beside the
	// shared run, so alone phases may interleave with warmup and measure.
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
// concurrent use by multiple simultaneous runs: a baseline another run is
// simulating is waited for, not simulated twice.
type AloneCache struct {
	c sim.AloneCache
}

// NewAloneCache returns an empty baseline cache.
func NewAloneCache() *AloneCache {
	return new(AloneCache)
}

// Len reports the number of cached baselines.
func (c *AloneCache) Len() int {
	return c.c.Len()
}

// WithAloneCache shares alone-run baselines across runs through c. Runs
// that find their benchmarks' baselines in the cache skip the alone
// simulations entirely; misses are computed once, beside the shared run,
// and inserted.
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
// across the shared run and each alone baseline run. fn runs on the
// goroutine that called RunContext and is never entered twice at once: the
// heartbeats of baselines simulated on helper goroutines are queued and
// delivered at the shared run's checkpoints and while RunContext joins the
// helpers. fn must not block.
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
// The shared run steps on the calling goroutine; the mix's missing alone
// baselines are simulated beside it on up to GOMAXPROCS-1 helper
// goroutines, and the calling goroutine runs any still waiting when the
// shared run ends. No goroutine outlives the call.
// ctx is polled at every epoch checkpoint (roughly every 10k CPU cycles);
// cancellation aborts the run mid-flight with an error wrapping ctx.Err().
// A failing shared run's error is returned before any baseline's, and the
// first failing baseline in benchmark order before the others.
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
	var deliver func(phase string, p sim.Progress)
	if rc.progress != nil {
		fn := rc.progress
		deliver = func(phase string, p sim.Progress) {
			fn(Progress{
				Phase:             phase,
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
	// Alone baselines run on helper goroutines beside the shared run (the
	// probe and command log are shared-run-only; RunAlone strips them). Their
	// heartbeats are relayed at the shared run's checkpoints and while
	// joining, so fn only ever runs here, on the calling goroutine.
	cache := rc.aloneCache
	if cache == nil {
		cache = NewAloneCache()
	}
	var aloneBeat func(string, sim.Progress)
	if deliver != nil {
		aloneBeat = func(bench string, p sim.Progress) { deliver("alone:"+bench, p) }
	}
	baselines := cache.c.Start(cfg, w.mix.Benchmarks, !independent, aloneBeat)
	defer baselines.Stop()
	if deliver != nil {
		cfg.Progress = func(p sim.Progress) {
			baselines.Relay()
			if p.Warmup {
				deliver("warmup", p)
			} else {
				deliver("measure", p)
			}
		}
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
	bases, err := baselines.Wait()
	if err != nil {
		return Report{}, err
	}
	var cs []metrics.Comparison
	aloneMCPI := make([]float64, len(res.Threads))
	rep := Report{Scheduler: res.Policy, BusUtilization: res.BusUtilization()}
	for i, th := range res.Threads {
		base := bases[i]
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
