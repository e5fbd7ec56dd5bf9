// Command parbs-sim runs one multiprogrammed workload under one DRAM
// scheduler and prints the paper's evaluation metrics.
//
// Usage:
//
//	parbs-sim -sched PAR-BS -mix libquantum,mcf,GemsFDTD,xalancbmk
//	parbs-sim -sched STFM -mix CSII
//	parbs-sim -sched PAR-BS -mix CSI -telemetry run.json [-epoch 1024]
//	parbs-sim -sched PAR-BS -mix CSI -trace run.trace.json -trace-events run.jsonl
//	parbs-sim -device ddr3-1333 -mix CSI
//	parbs-sim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	parbs "repro"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		schedName = flag.String("sched", "PAR-BS", "scheduler: "+strings.Join(sched.Names(), ", "))
		mixSpec   = flag.String("mix", "CSI", "named mix (CSI, CSII, CSIII, F9) or comma-separated benchmarks")
		cycles    = flag.Int64("cycles", 2_000_000, "measured CPU cycles")
		warmup    = flag.Int64("warmup", -1, "warmup CPU cycles discarded from statistics (-1 = paper default)")
		seed      = flag.Int64("seed", 1, "trace seed")
		device    = flag.String("device", "", "DRAM device: "+strings.Join(parbs.DeviceNames(), ", "))
		list      = flag.Bool("list", false, "list benchmarks and named mixes, then exit")
		timeline  = flag.Int64("timeline", 0, "print an ASCII per-bank command timeline of the first N DRAM cycles")
		batchInfo = flag.Bool("batchstats", false, "print PAR-BS batch telemetry (size/duration histograms)")
		telFile   = flag.String("telemetry", "", "write a JSON telemetry run report (schema "+telemetry.Schema+") to this file")
		epoch     = flag.Int64("epoch", 0, "telemetry sampling epoch in DRAM cycles (default 1024)")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto/chrome://tracing) to this file")
		eventFile = flag.String("trace-events", "", "write a JSONL lifecycle event log (schema "+trace.Schema+", for parbs-trace analyze) to this file")
		maxEvents = flag.Int("trace-max-events", 0, "cap buffered trace events (default 2^20)")
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline for the whole run, e.g. 30s (0 = none)")
		ticked    = flag.Bool("ticked", false, "force the legacy one-cycle-per-iteration run loop (disables next-event cycle skipping)")
		channels  = flag.Int("channels", 0, "DRAM channels (0 scales with cores as in the paper: 1/2/4 for 4/8/16)")
		chanMode  = flag.String("channel-mode", "", "channel organization: "+strings.Join(parbs.ChannelModeNames(), ", ")+" (default lockstep, the paper's ganged organization)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run (pprof format) to this file")
		memProf   = flag.String("memprofile", "", "write an end-of-run heap profile (pprof format) to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("schedulers:", strings.Join(sched.Names(), ", "))
		fmt.Println("named mixes: CSI, CSII, CSIII, F9")
		fmt.Println("benchmarks (Table 3):")
		for _, p := range workload.Benchmarks() {
			fmt.Printf("  %-12s cat=%d MPKI=%.2f RBhit=%.3f BLP=%.2f\n",
				p.Name, p.Category, p.MPKI, p.RowHit, p.BLP)
		}
		return
	}

	mix, err := resolveMix(*mixSpec)
	if err != nil {
		fatal(err)
	}
	cfg := sim.DefaultConfig(len(mix.Benchmarks))
	cfg.MeasureCPUCycles = *cycles
	if *warmup >= 0 {
		cfg.WarmupCPUCycles = *warmup
	}
	cfg.Seed = *seed
	cfg.ForceTicked = *ticked
	if *timeout > 0 {
		// The deadline is the RunContext-style cooperative one: the shared
		// run and every alone baseline poll it at their epoch checkpoints.
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Context = ctx
	}
	dev, err := parbs.ParseDevice(*device)
	if err != nil {
		fatal(err)
	}
	if dev == parbs.DDR3_1333 {
		cfg.Timing = dram.DDR3_1333()
		cfg.CPUCyclesPerDRAM = 6 // 4 GHz over a 667 MHz command clock
	}
	mode, err := parbs.ParseChannelMode(*chanMode)
	if err != nil {
		fatal(err)
	}
	// Validate the flag shape through the public API so the CLI rejects
	// exactly what RunContext would.
	sys := parbs.DefaultSystem(len(mix.Benchmarks))
	sys.Channels = *channels
	sys.ChannelMode = mode
	sys.Device = dev
	if err := sys.Validate(); err != nil {
		fatal(err)
	}
	if *channels > 0 {
		cfg.Geometry.Channels = *channels
	}
	var tl *memctrl.Timeline
	if *timeline > 0 {
		tl = memctrl.NewTimeline(cfg.Geometry.Banks)
		tl.WithThreads = true
		cfg.CommandLog = tl.Record
	}
	var probe *telemetry.Probe
	if *telFile != "" {
		probe = telemetry.NewProbe(telemetry.Config{EpochDRAMCycles: *epoch})
		cfg.Probe = probe
	}
	var tracer *trace.Tracer
	if *traceFile != "" || *eventFile != "" {
		tracer = trace.NewTracer(trace.Config{MaxEvents: *maxEvents})
		cfg.Tracer = tracer
	}

	policy, err := sched.ByName(*schedName)
	if err != nil {
		fatal(err)
	}
	// Profiling covers the shared run plus the alone baselines computed for
	// the slowdown columns — all the simulation work the invocation does.
	// Inspect with `go tool pprof <binary|.> <file>`.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	var res sim.Result
	if mode == parbs.Independent {
		name := *schedName
		res, err = sim.RunIndependent(cfg, mix, func() memctrl.Policy {
			p, ferr := sched.ByName(name)
			if ferr != nil {
				panic(ferr) // unreachable: ByName succeeded above
			}
			return p
		})
	} else {
		res, err = sim.Run(cfg, mix, policy)
	}
	if err != nil {
		fatal(err)
	}
	chanOrg := "lock-step"
	if mode == parbs.Independent {
		chanOrg = "independent"
	}
	// One baseline per distinct benchmark: CSIII's four lbm copies share one.
	var baselines sim.AloneCache
	var cs []metrics.Comparison
	aloneMCPI := make([]float64, len(res.Threads))
	fmt.Printf("mix %s under %s (%d cores, %d %s channels)\n",
		mix.Name, res.Policy, cfg.Cores, cfg.Geometry.Channels, chanOrg)
	fmt.Printf("%-12s %10s %8s %8s %8s %8s %10s\n",
		"thread", "slowdown", "IPC", "MCPI", "BLP", "RBhit", "AST/req")
	for i, th := range res.Threads {
		alone, err := baselines.Alone(cfg, mix.Benchmarks[i], mode != parbs.Independent)
		if err != nil {
			fatal(err)
		}
		aloneMCPI[i] = alone.CPU.MCPI()
		c := metrics.Comparison{Alone: alone, Shared: th}
		cs = append(cs, c)
		fmt.Printf("%-12s %10.2f %8.3f %8.2f %8.2f %8.3f %10.1f\n",
			th.Benchmark, c.MemSlowdown(), th.CPU.IPC(), th.CPU.MCPI(),
			th.Mem.BLP(), th.Mem.RowHitRate(), th.CPU.ASTPerReq())
	}
	fmt.Printf("\nunfairness        %8.2f\n", metrics.Unfairness(cs))
	fmt.Printf("weighted speedup  %8.3f\n", metrics.WeightedSpeedup(cs))
	fmt.Printf("hmean speedup     %8.3f\n", metrics.HmeanSpeedup(cs))
	fmt.Printf("avg AST/req       %8.1f cycles\n", metrics.AvgASTPerReq(cs))
	fmt.Printf("worst-case lat.   %8d cycles\n", metrics.WorstCaseLatency(cs, cfg.CPUCyclesPerDRAM))
	fmt.Printf("bus utilization   %8.1f%%\n", 100*res.BusUtilization())
	if total := res.EvaluatedCycles + res.SkippedCycles; total > 0 {
		fmt.Printf("engine            %8d of %d DRAM cycles evaluated (%.1f%% skipped)\n",
			res.EvaluatedCycles, total, 100*float64(res.SkippedCycles)/float64(total))
	}
	if tl != nil {
		fmt.Printf("\n%s", tl.Render(0, *timeline))
	}
	if *batchInfo {
		if mode == parbs.Independent {
			fmt.Println("\n-batchstats is per-controller state; unavailable with -channel-mode independent")
		} else if eng, ok := policy.(*core.Engine); ok {
			fmt.Printf("\n%s", eng.BatchStats())
			fmt.Printf("max batches any request waited unmarked: %d\n", eng.MaxBatchWait())
		} else {
			fmt.Println("\n-batchstats requires a PAR-BS scheduler")
		}
	}
	if probe != nil {
		rep := probe.Report(telemetry.ReportMeta{
			Policy:     res.Policy,
			Workload:   mix.Name,
			Benchmarks: workload.Names(mix.Benchmarks),
			AloneMCPI:  aloneMCPI,
		})
		data, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*telFile, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntelemetry: %d epochs (%d DRAM cycles each) written to %s\n",
			rep.Epochs, rep.EpochDRAMCycles, *telFile)
	}
	if tracer != nil {
		if *traceFile != "" {
			if err := writeTrace(*traceFile, tracer.WriteChrome); err != nil {
				fatal(err)
			}
			fmt.Printf("\ntrace: %d events written to %s (load in Perfetto or chrome://tracing)\n",
				tracer.Events(), *traceFile)
		}
		if *eventFile != "" {
			if err := writeTrace(*eventFile, tracer.WriteJSONL); err != nil {
				fatal(err)
			}
			fmt.Printf("trace events: %d written to %s (analyze with parbs-trace analyze)\n",
				tracer.Events(), *eventFile)
		}
		if n := tracer.Dropped(); n > 0 {
			fmt.Printf("trace: %d events dropped after the buffer filled; raise -trace-max-events\n", n)
		}
	}
	if *cpuProf != "" {
		pprof.StopCPUProfile()
		fmt.Printf("\ncpu profile written to %s\n", *cpuProf)
	}
	if *memProf != "" {
		writeHeapProfile(*memProf)
		fmt.Printf("heap profile written to %s\n", *memProf)
	}
}

// writeHeapProfile records an end-of-run heap snapshot; the GC beforehand
// settles the live-object numbers so retained memory reads true.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// writeTrace renders one tracer output into path.
func writeTrace(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func resolveMix(spec string) (workload.Mix, error) {
	switch spec {
	case "CSI":
		return workload.CaseStudyI(), nil
	case "CSII":
		return workload.CaseStudyII(), nil
	case "CSIII":
		return workload.CaseStudyIII(), nil
	case "F9":
		return workload.Figure9Workload(), nil
	}
	names := strings.Split(spec, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return workload.MixOf("custom", names...)
}

func fatal(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "parbs-sim: -timeout deadline exceeded:", err)
		os.Exit(124)
	}
	fmt.Fprintln(os.Stderr, "parbs-sim:", err)
	os.Exit(1)
}
