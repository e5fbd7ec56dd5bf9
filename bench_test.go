package parbs

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each bench regenerates its artifact through the experiment registry at
// reduced (quick) fidelity and reports the headline metrics; the full-
// fidelity reproduction is `go run ./cmd/experiments`.
//
// Micro-benchmarks of the substrates (device command issue, scheduler
// decision, trace generation) follow the experiment benches.

import (
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchExperiment runs the registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	x := exp.NewContext(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(x)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig1ConceptOverlap(b *testing.B)     { benchExperiment(b, "F1") }
func BenchmarkFig2ConceptParallelism(b *testing.B) { benchExperiment(b, "F2") }
func BenchmarkFig3WorkedExample(b *testing.B)      { benchExperiment(b, "F3") }
func BenchmarkTable1StateBits(b *testing.B)        { benchExperiment(b, "T1") }
func BenchmarkTable2Baseline(b *testing.B)         { benchExperiment(b, "T2") }
func BenchmarkTable3Characterization(b *testing.B) { benchExperiment(b, "T3") }
func BenchmarkFig5CaseStudyI(b *testing.B)         { benchExperiment(b, "F5") }
func BenchmarkFig6CaseStudyII(b *testing.B)        { benchExperiment(b, "F6") }
func BenchmarkFig7FourLbm(b *testing.B)            { benchExperiment(b, "F7") }
func BenchmarkFig8Avg4Core(b *testing.B)           { benchExperiment(b, "F8") }
func BenchmarkFig9EightCore(b *testing.B)          { benchExperiment(b, "F9") }
func BenchmarkFig10SixteenCore(b *testing.B)       { benchExperiment(b, "F10") }
func BenchmarkTable4Summary(b *testing.B)          { benchExperiment(b, "T4") }
func BenchmarkFig11MarkingCap(b *testing.B)        { benchExperiment(b, "F11") }
func BenchmarkFig12BatchingChoice(b *testing.B)    { benchExperiment(b, "F12") }
func BenchmarkFig13RankingSchemes(b *testing.B)    { benchExperiment(b, "F13") }
func BenchmarkFig14Priorities(b *testing.B)        { benchExperiment(b, "F14") }

// BenchmarkSimulatedCyclesPerSecond measures raw simulator speed: DRAM
// cycles simulated per wall second for a 4-core intensive mix.
func BenchmarkSimulatedCyclesPerSecond(b *testing.B) {
	cfg := sim.DefaultConfig(4)
	cfg.WarmupCPUCycles = 0
	cfg.MeasureCPUCycles = 500_000
	mix := workload.CaseStudyI()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix, sched.NewPARBSDefault())
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.DRAMCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "DRAMcycles/s")
}

// BenchmarkSimulatedCyclesPerSecondTicked measures the same run with the
// next-event clock disabled (Config.ForceTicked): every DRAM cycle is
// evaluated. The gap to BenchmarkSimulatedCyclesPerSecond isolates the
// event clock's contribution from controller-level optimizations, which
// benefit both modes equally.
func BenchmarkSimulatedCyclesPerSecondTicked(b *testing.B) {
	cfg := sim.DefaultConfig(4)
	cfg.WarmupCPUCycles = 0
	cfg.MeasureCPUCycles = 500_000
	cfg.ForceTicked = true
	mix := workload.CaseStudyI()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix, sched.NewPARBSDefault())
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.DRAMCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "DRAMcycles/s")
}

// BenchmarkIdleSingleCore measures the next-event clock on two single-core
// extremes, each against a ForceTicked companion that evaluates every
// DRAM cycle. The clock jumps to the earliest cycle at which a core could
// call the memory port (its Horizon, or its wake bound when it is
// memory-blocked) or a controller has an event, so the two workloads
// bound its range:
//
//   - povray (0.03 MPKI): DRAM is idle for thousands of cycles between
//     requests and the compute-bound core streams long non-memory runs, so
//     the clock jumps from one access to the next (over 99% of cycles
//     skipped).
//   - matlab (78 MPKI stream): the core is memory-stalled most of the
//     time, so the clock jumps across the known DRAM-latency intervals.
//
// BENCH_9.json records both before and after the core horizon (BENCH_4.json
// has the older ratios); the saturated 4-core numbers are in BENCH_2.json.
func BenchmarkIdleSingleCore(b *testing.B) {
	for _, wl := range []string{"povray", "matlab"} {
		for _, bc := range []struct {
			name   string
			ticked bool
		}{{"event-clock", false}, {"ticked", true}} {
			b.Run(wl+"/"+bc.name, func(b *testing.B) {
				cfg := sim.DefaultConfig(1)
				cfg.WarmupCPUCycles = 0
				cfg.MeasureCPUCycles = 2_000_000
				cfg.ForceTicked = bc.ticked
				mix := workload.Mix{Name: "idle", Benchmarks: []workload.Profile{workload.MustByName(wl)}}
				b.ResetTimer()
				var cycles, skipped int64
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(cfg, mix, sched.NewPARBSDefault())
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.DRAMCycles
					skipped += res.SkippedCycles
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "DRAMcycles/s")
				b.ReportMetric(100*float64(skipped)/float64(cycles), "skipped%")
			})
		}
	}
}

// BenchmarkIndependentChannels measures the sharded Independent-channel
// engine on the paper's largest configuration (16 cores, 4 channels), its
// shards stepped inline in channel order.
func BenchmarkIndependentChannels(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		cfg := sim.DefaultConfig(16)
		cfg.WarmupCPUCycles = 0
		cfg.MeasureCPUCycles = 500_000
		cfg.Geometry.Channels = 4
		mix := workload.RandomMixes(1, 16, 1)[0]
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := sim.RunIndependent(cfg, mix, func() memctrl.Policy {
				return sched.NewPARBSDefault()
			})
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.DRAMCycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "DRAMcycles/s")
	})
}

// BenchmarkSchedulers compares per-run cost of each policy.
func BenchmarkSchedulers(b *testing.B) {
	for _, name := range sched.Names() {
		b.Run(name, func(b *testing.B) {
			cfg := sim.DefaultConfig(4)
			cfg.WarmupCPUCycles = 0
			cfg.MeasureCPUCycles = 200_000
			mix := workload.CaseStudyI()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol, err := sched.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(cfg, mix, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeviceIssue measures the DRAM device's command legality check
// and issue path.
func BenchmarkDeviceIssue(b *testing.B) {
	dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
	if err != nil {
		b.Fatal(err)
	}
	now := int64(0)
	issued := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := issued % 8
		row := int64(issued % 16)
		cmd := dev.NextCommand(bank, row, false)
		if dev.CanIssue(now, cmd, bank, row) {
			dev.Issue(now, cmd, bank, row)
			issued++
		}
		now++
	}
}

// BenchmarkAbstractBatch measures the Figure 3 abstract model.
func BenchmarkAbstractBatch(b *testing.B) {
	batch := core.Figure3Batch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, avg := batch.Simulate(core.AbsPARBS); avg != 3.125 {
			b.Fatal("wrong result")
		}
	}
}

// BenchmarkTraceGeneration measures synthetic trace throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	g := dram.DefaultGeometry()
	for _, name := range []string{"libquantum", "mcf"} {
		b.Run(name, func(b *testing.B) {
			src := workload.MustByName(name).Trace(0, g, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Next()
			}
		})
	}
}

// BenchmarkPolicyDecision measures one scheduling decision (candidate
// comparison) for FR-FCFS and PAR-BS over increasing buffer occupancy.
func BenchmarkPolicyDecision(b *testing.B) {
	for _, occupancy := range []int{16, 64, 128} {
		b.Run("occupancy-"+strconv.Itoa(occupancy), func(b *testing.B) {
			dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
			if err != nil {
				b.Fatal(err)
			}
			pol := sched.NewPARBSDefault()
			ctrl, err := memctrl.NewController(dev, pol, memctrl.DefaultConfig(4))
			if err != nil {
				b.Fatal(err)
			}
			g := dev.Geometry()
			row := int64(0)
			// Keep occupancy constant: each completion re-enqueues a fresh
			// request, so every Tick scans a full buffer.
			ctrl.SetOnComplete(func(r *memctrl.Request, end int64) {
				row++
				addr := g.Unmap(dram.Location{Bank: int(row) % 8, Row: row % 1024, Col: 0})
				ctrl.EnqueueRead(int(row)%4, addr, end)
			})
			for i := 0; i < occupancy; i++ {
				addr := g.Unmap(dram.Location{Bank: i % 8, Row: int64(i), Col: 0})
				ctrl.EnqueueRead(i%4, addr, 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctrl.Tick(int64(i)) // includes candidate scan + issue
			}
		})
	}
}
