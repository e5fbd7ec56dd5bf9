package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	parbs "repro"
	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The rigs below time calls into one layer's exported functions each, with
// fixed inputs, for the traced run. Each repeats its measurement and keeps
// the median.
const rigReps = 3

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// decisionOccupancies are the read-buffer occupancies the controller
// decision is timed at (the buffer holds 128).
var decisionOccupancies = []int{16, 64, 128}

// decisionPolicies lists every policy in the registry: the five paper
// schedulers and the extras.
func decisionPolicies() []string { return append(sched.Names(), sched.ExtraNames()...) }

func decisionMetric(policy string, occ int) string {
	return fmt.Sprintf("memctrl.decision_ns.%s.occ%d", strings.ReplaceAll(policy, "+", "_"), occ)
}

// decisionNS times memctrl.Controller.Tick under policy while the read
// buffer is held at occ entries: each completed read is replaced by a new
// one before the next tick, so the time includes that one enqueue.
func decisionNS(policy string, occ int) (float64, error) {
	const threads, warm, ticks = 4, 2_000, 40_000
	pol, err := sched.ByName(policy)
	if err != nil {
		return 0, err
	}
	dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
	if err != nil {
		return 0, err
	}
	c, err := memctrl.NewController(dev, pol, memctrl.DefaultConfig(threads))
	if err != nil {
		return 0, err
	}
	g := dev.Geometry()
	rng := rand.New(rand.NewSource(int64(occ)))
	fill := func(now int64) {
		for c.PendingReads() < occ {
			loc := dram.Location{Bank: rng.Intn(g.Banks), Row: rng.Int63n(64), Col: rng.Int63n(g.ColumnsPerRow())}
			if _, ok := c.EnqueueRead(rng.Intn(threads), g.Unmap(loc), now); !ok {
				return
			}
		}
	}
	now := int64(1)
	for ; now < warm; now++ {
		fill(now)
		c.Tick(now)
	}
	start := time.Now()
	for end := now + ticks; now < end; now++ {
		fill(now)
		c.Tick(now)
	}
	return float64(time.Since(start).Nanoseconds()) / ticks, nil
}

// deviceCheckNS times the device legality path the controller calls per
// candidate: NextCommand, CanIssue and, when legal, Issue.
func deviceCheckNS() (float64, error) {
	const n = 400_000
	dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
	if err != nil {
		return 0, err
	}
	banks := dev.Geometry().Banks
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for now := int64(0); now < n; now++ {
		bank, row := rng.Intn(banks), rng.Int63n(8)
		cmd := dev.NextCommand(bank, row, false)
		if dev.CanIssue(now, cmd, bank, row) {
			dev.Issue(now, cmd, bank, row)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n, nil
}

// stubPort is a fixed-latency memory: every read is accepted and completes
// latency CPU cycles after the tick that issued it.
type stubPort struct{ tags []int }

func (p *stubPort) IssueRead(_ int, _ int64, tag int) bool { p.tags = append(p.tags, tag); return true }
func (p *stubPort) IssueWrite(int, int64) bool             { return true }

// coreTickNS times cpu.Core.Tick over one DRAM cycle's worth of CPU cycles,
// fed each benchmark's generated trace through a stubPort.
func coreTickNS(benchmarks []string) (float64, error) {
	const ratio, latency, ticks = 10, 200, 20_000
	var total time.Duration
	for i, name := range benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		port := &stubPort{}
		core, err := cpu.NewCore(0, cpu.DefaultConfig(), p.Trace(0, dram.DefaultGeometry(), int64(i+1)), port)
		if err != nil {
			return 0, err
		}
		var req memctrl.Request
		start := time.Now()
		for cyc := int64(0); cyc < ticks*ratio; cyc += ratio {
			core.Tick(cyc, ratio)
			for _, tag := range port.tags {
				req.Tag = tag
				core.Complete(&req, cyc+latency)
			}
			port.tags = port.tags[:0]
		}
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / float64(ticks*len(benchmarks)), nil
}

// traceItemNS times workload trace generation: Profile.Trace(...).Next().
func traceItemNS(benchmarks []string) (float64, error) {
	const items = 200_000
	var total time.Duration
	for i, name := range benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		src := p.Trace(0, dram.DefaultGeometry(), int64(i+1))
		start := time.Now()
		for j := 0; j < items; j++ {
			src.Next()
		}
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / float64(items*len(benchmarks)), nil
}

// simConfig lowers sys the way the public API does, with the sharded
// engine pinned to one worker.
func simConfig(sys parbs.System) sim.Config {
	cfg := sim.DefaultConfig(sys.Cores)
	if sys.Channels > 0 {
		cfg.Geometry.Channels = sys.Channels
	}
	if sys.MeasureCycles > 0 {
		cfg.MeasureCPUCycles = sys.MeasureCycles
	}
	if sys.WarmupCycles > 0 {
		cfg.WarmupCPUCycles = sys.WarmupCycles
	}
	if sys.Seed != 0 {
		cfg.Seed = sys.Seed
	}
	cfg.Parallelism = 1
	return cfg
}

// runShared runs one PAR-BS shared run on the engine sys selects.
func runShared(cfg sim.Config, sys parbs.System, mix workload.Mix) (sim.Result, error) {
	if sys.ChannelMode == parbs.Independent {
		return sim.RunIndependent(cfg, mix, func() memctrl.Policy { return sched.NewPARBSDefault() })
	}
	return sim.Run(cfg, mix, sched.NewPARBSDefault())
}

// simLoopStats measures the run loop on one shared run of w: the share of
// cycles it evaluates rather than skips, wall time per evaluated cycle,
// and commands issued per evaluated cycle (counted in a second run with a
// command log, so the hook does not slow the timed one). It also checks
// that the run spans the cycles the throughput metric credits it with.
func simLoopStats(sys parbs.System, w parbs.Workload, m map[string]float64) error {
	mix, err := workload.MixOf(w.Name(), w.Benchmarks()...)
	if err != nil {
		return err
	}
	cfg := simConfig(sys)
	var res sim.Result
	perCycle, err := medianOf(rigReps, func() (float64, error) {
		start := time.Now()
		res, err = runShared(cfg, sys, mix)
		return float64(time.Since(start).Nanoseconds()) / float64(res.EvaluatedCycles), err
	})
	if err != nil {
		return err
	}
	if span := res.EvaluatedCycles + res.SkippedCycles; span != runCycles(sys) {
		return fmt.Errorf("shared run spans %d DRAM cycles, throughput credits %d", span, runCycles(sys))
	}
	var cmds int64
	cfg.CommandLog = func(memctrl.CommandEvent) { cmds++ }
	if _, err := runShared(cfg, sys, mix); err != nil {
		return err
	}
	m["sim.eval_cycle_ns"] = perCycle
	m["sim.eval_pct"] = 100 * float64(res.EvaluatedCycles) / float64(res.EvaluatedCycles+res.SkippedCycles)
	m["memctrl.cmds_per_eval_cycle"] = float64(cmds) / float64(res.EvaluatedCycles)
	return nil
}

// aloneMS times each Table 3 benchmark's alone baseline on sys's engine,
// the work set-up does to warm the alone cache.
func aloneMS(sys parbs.System, rec *recorder) (float64, error) {
	cfg := simConfig(sys)
	for _, p := range workload.Benchmarks() {
		sp := rec.begin("sim.alone")
		var err error
		if sys.ChannelMode == parbs.Independent {
			_, err = sim.RunAloneIndependent(cfg, p)
		} else {
			_, err = sim.RunAlone(cfg, p)
		}
		rec.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return median(rec.durations("sim.alone")), nil
}

// observerCosts runs the serve-traced job spec in process through
// parbs.RunContext bare, with telemetry and with a tracer, then times the
// tracer's encoders and the analysis layer on the recorded trace.
func observerCosts(seed int64, m map[string]float64) error {
	sysSeed, benchmarks, schedName := serveStreamSpec(seed, 0)
	w, err := parbs.WorkloadFromNames(benchmarks...)
	if err != nil {
		return err
	}
	sys, cache := serveSystem(sysSeed), parbs.NewAloneCache()
	var tracer *parbs.Tracer
	run := func(opt func() parbs.RunOption) (float64, error) {
		s, err := parbs.SchedulerByName(schedName)
		if err != nil {
			return 0, err
		}
		opts := []parbs.RunOption{parbs.WithAloneCache(cache)}
		if opt != nil {
			opts = append(opts, opt())
		}
		start := time.Now()
		_, err = parbs.RunContext(context.Background(), sys, w, s, opts...)
		return float64(time.Since(start).Nanoseconds()) / 1e6, err
	}
	if _, err := run(nil); err != nil { // warms the alone baselines
		return err
	}
	var bare, tel, trc []float64
	for i := 0; i < rigReps; i++ {
		for _, arm := range []struct {
			out *[]float64
			opt func() parbs.RunOption
		}{
			{&bare, nil},
			{&tel, func() parbs.RunOption { return parbs.WithTelemetry(parbs.NewTelemetry(parbs.TelemetryConfig{})) }},
			{&trc, func() parbs.RunOption {
				tracer = parbs.NewTracer(parbs.TracerConfig{})
				return parbs.WithTrace(tracer)
			}},
		} {
			ms, err := run(arm.opt)
			if err != nil {
				return err
			}
			*arm.out = append(*arm.out, ms)
		}
	}
	if tracer.Dropped() != 0 {
		return fmt.Errorf("observer rig: tracer dropped %d events", tracer.Dropped())
	}
	events := float64(tracer.Events())
	m["telemetry.overhead_pct"] = 100 * (median(tel) - median(bare)) / median(bare)
	m["trace.record_overhead_pct"] = 100 * (median(trc) - median(bare)) / median(bare)
	m["trace.events_per_op"] = events

	var jsonl []byte
	perEvent := func(f func() error) (float64, error) {
		return medianOf(rigReps, func() (float64, error) {
			start := time.Now()
			err := f()
			return float64(time.Since(start).Nanoseconds()) / events, err
		})
	}
	if m["trace.jsonl_ns_per_event"], err = perEvent(func() (err error) { jsonl, err = tracer.EventsJSONL(); return err }); err != nil {
		return err
	}
	if m["trace.chrome_ns_per_event"], err = perEvent(func() error { _, err := tracer.ChromeTrace(); return err }); err != nil {
		return err
	}
	var store *analysis.Store
	if m["analysis.ingest_ns_per_event"], err = perEvent(func() (err error) {
		store, err = analysis.Ingest(bytes.NewReader(jsonl))
		return err
	}); err != nil {
		return err
	}
	if store.Truncated() || store.Events() != tracer.Events() {
		return fmt.Errorf("observer rig: ingest kept %d of %d events (truncated %v)", store.Events(), tracer.Events(), store.Truncated())
	}
	m["analysis.analyze_ms"], err = medianOf(rigReps, func() (float64, error) {
		start := time.Now()
		store.Analyze(analysis.Options{})
		return float64(time.Since(start).Nanoseconds()) / 1e6, nil
	})
	return err
}

// parallelSpeedup times one sharded-16c op at one worker and at one worker
// per CPU, alternating, and returns the ratio of median wall times.
func parallelSpeedup(b *sharded) (float64, error) {
	var seq, par []float64
	for i := 0; i < 2; i++ {
		for _, arm := range []struct {
			out *[]float64
			n   int
		}{{&seq, 1}, {&par, runtime.NumCPU()}} {
			b.parallelism = arm.n
			start := time.Now()
			_, err := b.op(0, nil)
			*arm.out = append(*arm.out, time.Since(start).Seconds())
			if err != nil {
				return 0, err
			}
		}
	}
	b.parallelism = 1
	return median(seq) / median(par), nil
}
