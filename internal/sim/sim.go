// Package sim assembles the full system of the paper's Table 2 — cores,
// on-chip DRAM controller and DRAM device — and runs multiprogrammed
// workloads, both shared (all cores active) and alone (one thread on the
// same memory system), producing the raw measurements the metrics package
// turns into the paper's evaluation numbers.
package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulated system.
type Config struct {
	// Cores is the number of cores (== threads; Section 2's assumption).
	Cores int
	// CPUCyclesPerDRAM is the clock ratio: a 4 GHz core over DDR2-800's
	// 400 MHz command clock gives 10.
	CPUCyclesPerDRAM int64
	// WarmupCPUCycles are simulated then discarded from all statistics.
	WarmupCPUCycles int64
	// MeasureCPUCycles is the measured portion of the run.
	MeasureCPUCycles int64
	// CompletionOverheadCPU is the fixed L2-miss round-trip overhead added
	// on top of the DRAM service time (cache hierarchy, on-chip network),
	// calibrated so a row-hit load's uncontended round trip is ~160 CPU
	// cycles as in Table 2.
	CompletionOverheadCPU int64
	// Timing and Geometry configure the DRAM device. Geometry.Channels
	// holds the lock-step channel count (1, 2, 4 for 4-, 8-, 16-core
	// systems, scaling bandwidth with cores as in Table 2).
	Timing   dram.Timing
	Geometry dram.Geometry
	// Ctrl configures the memory controller; Ctrl.Threads is overridden
	// with Cores.
	Ctrl memctrl.Config
	// Core configures each processing core.
	Core cpu.Config
	// Seed drives workload generation.
	Seed int64
	// CommandLog, when non-nil, receives every issued DRAM command
	// (debugging/timelines; see memctrl.Timeline).
	CommandLog func(memctrl.CommandEvent)
	// Probe, when non-nil, samples telemetry on the probe's epoch during
	// the measured window. Probes are passive: the command stream is
	// byte-identical with and without one (pinned by the equivalence
	// tests), and the nil-probe path performs no extra work.
	Probe *telemetry.Probe
	// Tracer, when non-nil, records request/batch lifecycle events for the
	// run (warmup included — forensics need complete request histories).
	// Tracers obey the same discipline as probes: passive, nil-gated, and
	// pinned non-perturbing by the equivalence tests.
	Tracer *trace.Tracer
	// Progress, when non-nil, is called at every epoch checkpoint
	// (heartbeats for long runs). It must not block.
	Progress func(Progress)
	// Context, when non-nil, is polled at every epoch checkpoint;
	// cancellation aborts the run with the context's error.
	Context context.Context
	// Parallelism is ignored: every run steps its channel shards inline,
	// in channel order, on the calling goroutine (DESIGN.md §14).
	//
	// Deprecated: the shard worker pool it sized was removed; the field
	// remains only so existing callers compile.
	Parallelism int
	// ForceTicked forces the legacy one-cycle-per-iteration run loop,
	// disabling next-event cycle skipping. The command stream, telemetry
	// report and trace log are byte-identical either way — pinned by the
	// differential equivalence tests — so the flag exists for differential
	// testing and as an escape hatch, not for correctness.
	ForceTicked bool
}

// Progress is a heartbeat snapshot delivered to Config.Progress.
type Progress struct {
	// DRAMCycle and TotalDRAMCycles locate the run: DRAMCycle/Total is the
	// fraction complete (warmup included).
	DRAMCycle       int64
	TotalDRAMCycles int64
	// CPUCycle is DRAMCycle in CPU cycles.
	CPUCycle int64
	// Warmup reports whether the run is still inside the warmup window.
	Warmup bool
	// CommandsIssued is the cumulative DRAM command count.
	CommandsIssued int64
	// PendingReads is the request-buffer occupancy at the checkpoint,
	// summed over channels in independent-channel runs.
	PendingReads int
	// PendingPerChannel is the per-channel request-buffer occupancy of an
	// independent-channel run (RunIndependent), indexed by channel; nil for
	// single-stream runs.
	PendingPerChannel []int
}

// DefaultConfig returns the paper's baseline system for the given core
// count: DDR2-800 with 8 banks, channels scaled 1/2/4 for 4/8/16 cores,
// a 128-entry request buffer and 128-entry instruction windows.
func DefaultConfig(cores int) Config {
	g := dram.DefaultGeometry()
	g.Channels = cores / 4
	if g.Channels < 1 {
		g.Channels = 1
	}
	return Config{
		Cores:                 cores,
		CPUCyclesPerDRAM:      10,
		WarmupCPUCycles:       200_000,
		MeasureCPUCycles:      2_000_000,
		CompletionOverheadCPU: 60,
		Timing:                dram.DDR2_800(),
		Geometry:              g,
		Ctrl:                  memctrl.DefaultConfig(cores),
		Core:                  cpu.DefaultConfig(),
		Seed:                  1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: cores must be positive, got %d", c.Cores)
	case c.CPUCyclesPerDRAM <= 0:
		return fmt.Errorf("sim: CPU:DRAM clock ratio must be positive")
	case c.MeasureCPUCycles <= 0:
		return fmt.Errorf("sim: measurement window must be positive")
	case c.WarmupCPUCycles < 0 || c.CompletionOverheadCPU < 0:
		return fmt.Errorf("sim: warmup and overhead must be non-negative")
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	// Policy is the scheduler's name.
	Policy string
	// Threads holds one outcome per core, in core order.
	Threads []metrics.ThreadOutcome
	// DRAM holds device-level counters for the measured window.
	DRAM dram.Stats
	// DRAMCycles is the measured window length in DRAM cycles.
	DRAMCycles int64
	// EvaluatedCycles counts the DRAM cycles the run loop actually
	// simulated and SkippedCycles those the next-event clock jumped over
	// (warmup included in both; they sum to the run's total span). Under
	// Config.ForceTicked SkippedCycles is 0.
	EvaluatedCycles int64
	SkippedCycles   int64
}

// BusUtilization returns the measured data-bus utilization.
func (r Result) BusUtilization() float64 {
	if r.DRAMCycles == 0 {
		return 0
	}
	return float64(r.DRAM.BusyCycles) / float64(r.DRAMCycles)
}

// coreClock is the run loop's view of one core between its Ticks.
type coreClock struct {
	// done is the CPU cycle the core has simulated up to.
	done int64
	// quiet is a CPU cycle before which the core calls no memory port:
	// max(Horizon, BlockedUntil) after its last Tick and every completion
	// queued since.
	quiet int64
	// onPort is the core's BlockedOnPort after its last Tick.
	onPort bool
}

// catchUp ticks the core from done to end (a no-op when it is there).
func (k *coreClock) catchUp(c *cpu.Core, end int64) {
	if end > k.done {
		c.Tick(k.done, int(end-k.done))
		k.done = end
		k.onPort = c.BlockedOnPort()
		k.settle(c)
	}
}

// settle recomputes quiet from the core's published bounds.
func (k *coreClock) settle(c *cpu.Core) {
	k.quiet = max(c.Horizon(), c.BlockedUntil())
}

// livenessWindowDRAM is the scheduling-deadlock deadline in elapsed DRAM
// cycles: a run aborts when reads stay buffered with no command issued for
// longer than this. The next-event clock caps its jumps at this deadline
// whenever reads are pending, so the guard fires on the same cycle whether
// cycles are skipped or ticked.
const livenessWindowDRAM = 100_000

// Run simulates the mix on cfg under the given scheduling policy, on the
// paper's lock-step memory system: cfg.Geometry.Channels channels ganged
// into one device driven by one controller. The policy instance must be
// fresh (policies are stateful and single-use).
func Run(cfg Config, mix workload.Mix, policy memctrl.Policy) (Result, error) {
	return run(cfg, mix, func() memctrl.Policy { return policy }, true)
}

// RunAlone simulates one benchmark alone on the same memory system (same
// channel count, banks and controller) — the baseline for slowdown metrics.
// The scheduling policy is irrelevant with one thread; FR-FCFS is used as
// in the paper's alone runs. Telemetry probes, tracers and command logs
// apply only to the shared run and are stripped here; Context and Progress
// carry over.
func RunAlone(cfg Config, p workload.Profile) (metrics.ThreadOutcome, error) {
	return runAlone(cfg, p, true)
}

// runAlone is the alone baseline of either channel layout.
func runAlone(cfg Config, p workload.Profile, ganged bool) (metrics.ThreadOutcome, error) {
	cfg.Cores = 1
	cfg.Ctrl.Threads = 1
	cfg.Probe, cfg.Tracer, cfg.CommandLog = nil, nil, nil
	mix := workload.Mix{Name: "alone-" + p.Name, Benchmarks: []workload.Profile{p}}
	res, err := run(cfg, mix, frfcfsPolicy, ganged)
	if err != nil {
		return metrics.ThreadOutcome{}, err
	}
	return res.Threads[0], nil
}

// run is the one run loop behind Run and RunIndependent. The memory system
// is a set of channel shards, each a device with its own controller and
// policy: a lock-step (ganged) system is one shard whose device gangs
// cfg.Geometry.Channels channels, an independent system one Channels = 1
// shard per channel. The two layouts differ only in device and trace
// geometry, trace.Meta.Channels (0 when ganged), the " xN-independent"
// policy suffix and Progress.PendingPerChannel (nil when ganged).
//
// Everything runs on the calling goroutine. Cores tick in core order on
// every evaluated cycle in which they could call the memory port (enqueue
// order is semantic: request-buffer back-pressure depends on it); the shard
// controllers then advance in channel order, delivering completions,
// command-log events and telemetry as they happen. Trace events go to a
// per-shard tracer merged after the run (stable by cycle, then channel).
//
// The loop is a next-event clock: each iteration evaluates one DRAM cycle,
// and when that cycle was provably inert — no shard issued a command — the
// clock jumps straight to the earliest cycle at which anything can happen,
// a core's next possible port call or a shard's next event. Jump targets
// are lower bounds that never overshoot an event (DESIGN.md §13), and every
// externally-timed edge (warmup reset, telemetry epoch, checkpoint,
// liveness deadline) caps the jump so it is evaluated on exactly the cycle
// the ticked loop would have, making the command stream, telemetry and
// traces byte-identical in both modes (pinned by the differential
// equivalence tests).
func run(cfg Config, mix workload.Mix, factory func() memctrl.Policy, ganged bool) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n, geom := 1, cfg.Geometry
	if !ganged {
		n, geom.Channels = cfg.Geometry.Channels, 1
		if n < 1 {
			return Result{}, fmt.Errorf("sim: independent channels need Channels >= 1, got %d", n)
		}
	}
	if len(mix.Benchmarks) != cfg.Cores {
		return Result{}, fmt.Errorf("sim: mix %q has %d benchmarks for %d cores",
			mix.Name, len(mix.Benchmarks), cfg.Cores)
	}

	skipping := !cfg.ForceTicked
	ratio := cfg.CPUCyclesPerDRAM
	cores := make([]*cpu.Core, cfg.Cores)
	clocks := make([]coreClock, cfg.Cores)
	complete := func(r *memctrl.Request, endDRAM int64) {
		core := cores[r.Thread]
		core.Complete(r, endDRAM*ratio+cfg.CompletionOverheadCPU)
		clocks[r.Thread].settle(core) // the completion may lower its wake bound
	}
	tr := cfg.Tracer
	shards := make([]*memctrl.Controller, n)
	var shardTracers []*trace.Tracer
	var first memctrl.Policy
	for ch := range shards {
		dev, err := dram.NewDevice(cfg.Timing, geom)
		if err != nil {
			return Result{}, err
		}
		ctrlCfg := cfg.Ctrl
		ctrlCfg.Threads = cfg.Cores
		// Stamp the channel and stride request IDs so they stay globally
		// unique and shard-independent (trace analysis keys on them).
		ctrlCfg.Channel, ctrlCfg.IDBase, ctrlCfg.IDStride = ch, int64(ch), int64(n)
		pol := factory()
		if pol == nil {
			return Result{}, fmt.Errorf("sim: policy factory returned nil")
		}
		if ch == 0 {
			first = pol
		}
		ctrl, err := memctrl.NewController(dev, pol, ctrlCfg)
		if err != nil {
			return Result{}, err
		}
		ctrl.SetOnComplete(complete)
		ctrl.SetCommandLog(cfg.CommandLog)
		if probe := cfg.Probe; probe != nil {
			ctrl.SetProbe(probe)
			if eng, ok := pol.(interface{ SetBatchObserver(core.BatchObserver) }); ok {
				eng.SetBatchObserver(probe)
			}
		}
		// Tracing: a lone shard records straight into the run's tracer;
		// several record into shard tracers (events stamped with the channel
		// index) merged back into it after the run.
		if tr != nil {
			st := tr
			if n > 1 {
				st = tr.NewShard(ch)
				shardTracers = append(shardTracers, st)
			}
			ctrl.SetTracer(st)
			if eng, ok := pol.(interface{ SetLifecycleObserver(core.LifecycleObserver) }); ok {
				eng.SetLifecycleObserver(st)
			}
		}
		shards[ch] = ctrl
	}

	port := &channelPort{shards: shards, line: cfg.Geometry.LineBytes, chans: n}
	for i, p := range mix.Benchmarks {
		core, err := cpu.NewCore(i, cfg.Core, p.Trace(i, geom, cfg.Seed), port)
		if err != nil {
			return Result{}, err
		}
		cores[i] = core
	}

	warmupDRAM := cfg.WarmupCPUCycles / ratio
	totalDRAM := warmupDRAM + cfg.MeasureCPUCycles/ratio

	// Telemetry sampling is preallocated here; the loop allocates nothing
	// for it.
	var tel *sampler
	checkEvery := int64(1024) // context/progress checkpoint period
	if probe := cfg.Probe; probe != nil {
		epochLen := probe.EpochDRAMCycles()
		checkEvery = epochLen
		probe.Bind(cfg.Cores, n*geom.Banks, shards[0].Device().BurstCycles(),
			(totalDRAM-warmupDRAM)/epochLen)
		tel = &sampler{
			probe:      probe,
			cores:      cores,
			shards:     shards,
			threads:    make([]telemetry.ThreadSample, cfg.Cores),
			bankCAS:    make([]int64, n*geom.Banks),
			chanBanks:  geom.Banks,
			nextSample: warmupDRAM + epochLen,
			epochLen:   epochLen,
		}
	}
	if tr != nil {
		markingCap := 0
		if eng, ok := first.(*core.Engine); ok {
			markingCap = eng.Options().MarkingCap
		}
		meta := trace.Meta{
			Policy:         first.Name(),
			Workload:       mix.Name,
			Cores:          cfg.Cores,
			Banks:          geom.Banks,
			CPUPerDRAM:     ratio,
			WarmupDRAM:     warmupDRAM,
			TotalDRAM:      totalDRAM,
			MarkingCap:     markingCap,
			ReadBufEntries: cfg.Ctrl.ReadBufEntries,
		}
		if !ganged {
			meta.Channels = n
		}
		tr.Bind(meta)
	}
	// Checkpoints (context polls, progress heartbeats) share the epoch
	// cadence; with no consumers the schedule stays past the horizon so the
	// loop pays only one int64 comparison per cycle.
	nextCheck := totalDRAM + 1
	if cfg.Context != nil || cfg.Progress != nil {
		nextCheck = checkEvery
	}

	issued := func() (t int64) {
		for _, c := range shards {
			t += c.CommandsIssued()
		}
		return t
	}
	pending := func() (t int) {
		for _, c := range shards {
			t += c.PendingReads()
		}
		return t
	}

	// Per-core tick gating: a core that provably makes no memory-port call
	// before the end of this cycle's CPU span (clocks[i].quiet) is left
	// unticked — the span, computing or stalled, is applied later by one
	// catch-up Tick, which streams it in closed form — while other cores and
	// the controllers keep running. Nothing else outside a core steers it:
	// completions arrive with explicit timestamps and lower the bound as
	// they are queued (settle). Port-stalled cores are exempt: a command
	// issue frees the buffer slot they wait on, an event their bound cannot
	// see. Gating requires CompletionOverheadCPU >= ratio so a completion
	// queued by this cycle's controller tick (at dc*ratio+overhead) can never
	// fall inside the current core span — otherwise a catch-up tick would
	// deliver it one evaluated cycle earlier than per-cycle ticking does.
	gating := skipping && cfg.CompletionOverheadCPU >= ratio
	lastIssued, lastIssuedAt := int64(0), int64(0)
	evaluated := int64(0)
	for dc := int64(0); dc < totalDRAM; {
		if dc == warmupDRAM && dc > 0 {
			// A jump or a gate may leave a core's CPU time inside the warmup
			// window; tick the (provably port-quiet) remainder first so the
			// discarded span accrues before the reset, exactly as in the
			// ticked loop.
			for i, core := range cores {
				clocks[i].catchUp(core, dc*ratio)
				core.ResetStats()
			}
			for _, c := range shards {
				c.ResetStats()
			}
			if tel != nil {
				tel.probe.Rebase()
			}
		}
		evaluated++
		port.now = dc
		tickEnd := (dc + 1) * ratio
		// The telemetry sampler reads core state after this cycle, so sample
		// cycles tick every core (as the per-cycle loop would) instead of
		// deferring.
		gate := gating && !(tel != nil && dc+1 == tel.nextSample)
		for i, core := range cores {
			if k := &clocks[i]; !gate || k.onPort || tickEnd > k.quiet {
				k.catchUp(core, tickEnd)
			}
		}
		// stepAt is the earliest cycle a controller asks to be stepped
		// at: dc+1 after an issue, its next event after an idle tick.
		stepAt := int64(math.MaxInt64)
		for _, c := range shards {
			if skipping {
				stepAt = min(stepAt, c.Step(dc))
			} else {
				c.Tick(dc)
			}
		}
		// Liveness check: buffered work with no command progress for a long
		// stretch of simulated time indicates a scheduling deadlock (a policy
		// bug). The window counts elapsed DRAM cycles, not loop iterations,
		// and jumps are capped at the deadline below, so the guard fires on
		// the same cycle with skipping on or off.
		if n := issued(); n != lastIssued {
			lastIssued, lastIssuedAt = n, dc
		} else if dc-lastIssuedAt > livenessWindowDRAM && pending() > 0 {
			return Result{}, fmt.Errorf("sim: no DRAM progress for %d cycles with %d reads pending (policy %s)",
				dc-lastIssuedAt, pending(), first.Name())
		}
		if tel != nil && dc+1 == tel.nextSample {
			tel.sample(dc + 1)
		}
		if dc+1 == nextCheck {
			nextCheck += checkEvery
			if ctx := cfg.Context; ctx != nil {
				if err := ctx.Err(); err != nil {
					return Result{}, fmt.Errorf("sim: run canceled at DRAM cycle %d of %d: %w",
						dc+1, totalDRAM, err)
				}
			}
			if cfg.Progress != nil {
				p := Progress{
					DRAMCycle:       dc + 1,
					TotalDRAMCycles: totalDRAM,
					CPUCycle:        (dc + 1) * ratio,
					Warmup:          dc+1 < warmupDRAM,
					CommandsIssued:  lastIssued,
					PendingReads:    pending(),
				}
				if !ganged {
					p.PendingPerChannel = make([]int, n)
					for ch, c := range shards {
						p.PendingPerChannel[ch] = c.PendingReads()
					}
				}
				cfg.Progress(p)
			}
		}
		next := dc + 1
		if skipping && stepAt > next {
			// No shard issued a command or has an event before stepAt, so
			// nothing observable can happen until the earliest of that and
			// the cores' port-quiet bounds: a core's own progress up to its
			// bound is applied by its catch-up Tick. A cycle that issued
			// (stepAt == next) never jumps: the issue may have freed a
			// request- or write-buffer slot a fetch- or store-stalled core
			// waits on. That short-circuit also spares the core scan below
			// on every issuing cycle.
			target := min(totalDRAM, stepAt)
			for i := range clocks {
				target = min(target, clocks[i].quiet/ratio)
			}
			if target > next {
				if dc < warmupDRAM && warmupDRAM < target {
					target = warmupDRAM
				}
				if tel != nil && tel.nextSample-1 < target {
					target = tel.nextSample - 1
				}
				if nextCheck-1 < target {
					target = nextCheck - 1
				}
				if pending() > 0 {
					if deadline := lastIssuedAt + livenessWindowDRAM + 1; deadline < target {
						target = deadline
					}
				}
			}
			if target > next {
				// The skipped span is provably idle on every shard; each
				// accounts it in closed form.
				for _, c := range shards {
					c.AccountIdleSpan(target - next)
				}
				next = target
			}
		}
		dc = next
	}
	// The final jump (or a still-armed per-core gate) may leave a core's CPU
	// time short of the run's end; it makes no port call over the remainder
	// (jump targets and gates honored its bound), so this tick depends on
	// nothing but the completions already queued.
	for i, core := range cores {
		clocks[i].catchUp(core, totalDRAM*ratio)
	}
	if tel != nil {
		tel.probe.RecordLoopStats(totalDRAM, evaluated, totalDRAM-evaluated)
	}
	if shardTracers != nil {
		tr.MergeShards(shardTracers)
	}

	res := Result{
		Policy:          first.Name(),
		DRAMCycles:      totalDRAM - warmupDRAM,
		EvaluatedCycles: evaluated,
		SkippedCycles:   totalDRAM - evaluated,
	}
	if !ganged {
		res.Policy += fmt.Sprintf(" x%d-independent", n)
	}
	for _, c := range shards {
		st := c.Device().Stats()
		res.DRAM.Activates += st.Activates
		res.DRAM.Precharges += st.Precharges
		res.DRAM.Reads += st.Reads
		res.DRAM.Writes += st.Writes
		res.DRAM.Refreshes += st.Refreshes
		res.DRAM.BusyCycles += st.BusyCycles / int64(n) // normalize to one bus
	}
	for i, core := range cores {
		merged := shards[0].ThreadStats(i)
		for _, c := range shards[1:] {
			merged = merged.Merge(c.ThreadStats(i))
		}
		res.Threads = append(res.Threads, metrics.ThreadOutcome{
			Benchmark: mix.Benchmarks[i].Name,
			CPU:       core.Stats(),
			Mem:       merged,
		})
	}
	return res, nil
}
