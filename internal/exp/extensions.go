package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file holds extension experiments beyond the paper's figures:
// the varying-system-parameter studies its extended technical report
// ([26], MSR-TR-2008-26) covers, the adaptive Marking-Cap the paper
// suggests as future work (Section 8.3.1), the start-time fair queueing
// improvement cited in related work, and a DRAM-refresh sensitivity check.

func init() {
	register(Experiment{ID: "X1", Title: "[extension] Sensitivity to DRAM bank count", Run: runX1})
	register(Experiment{ID: "X2", Title: "[extension] Sensitivity to lock-step channel count", Run: runX2})
	register(Experiment{ID: "X3", Title: "[extension] Sensitivity to request buffer size", Run: runX3})
	register(Experiment{ID: "X4", Title: "[extension] Adaptive Marking-Cap vs fixed caps", Run: runX4})
	register(Experiment{ID: "X5", Title: "[extension] NFQ virtual-finish vs start-time fair queueing", Run: runX5})
	register(Experiment{ID: "X6", Title: "[extension] Impact of DRAM refresh", Run: runX6})
	register(Experiment{ID: "X7", Title: "[extension] DDR3-1333 vs DDR2-800 device generation", Run: runX7})
}

// csiGrid runs CSI under each variant on n configurations, the i-th made
// by mutate(cfg, i) from the 4-core baseline, and returns the results
// indexed [configuration][variant].
func csiGrid(x *Context, n int, mutate func(cfg *sim.Config, i int), variants []variant) ([][]MixResult, error) {
	out := make([][]MixResult, n)
	for i := range out {
		cfg := x.Config(4)
		mutate(&cfg, i)
		results, err := runGrid(x, cfg, []workload.Mix{workload.CaseStudyI()}, variants)
		if err != nil {
			return nil, err
		}
		out[i] = results[0]
	}
	return out, nil
}

// sensitivity runs CSI under three representative schedulers for each
// configuration mutation.
func sensitivity(x *Context, id, title, param string, values []string,
	mutate func(cfg *sim.Config, idx int)) (*Table, error) {
	variants := schedVariants("FR-FCFS", "STFM", "PAR-BS")
	results, err := csiGrid(x, len(values), mutate, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title,
		Header: []string{param, "scheduler", "unfairness", "Wspeedup", "Hspeedup", "AST/req"}}
	for i, row := range results {
		for vi, r := range row {
			t.AddRow(values[i], variants[vi].label, f2(r.Unfair), f3(r.WSpeedup), f3(r.HSpeedup), f1(r.AvgAST))
		}
	}
	return t, nil
}

func runX1(x *Context) (*Table, error) {
	banks := []int{4, 8, 16}
	t, err := sensitivity(x, "X1", "CSI across bank counts", "banks",
		[]string{"4", "8", "16"}, func(cfg *sim.Config, i int) {
			cfg.Geometry.Banks = banks[i]
		})
	if err != nil {
		return nil, err
	}
	t.AddNote("more banks ease conflicts for every scheduler; PAR-BS's edge is largest when banks are scarce")
	return t, nil
}

func runX2(x *Context) (*Table, error) {
	chans := []int{1, 2, 4}
	t, err := sensitivity(x, "X2", "CSI across lock-step channel counts", "channels",
		[]string{"1", "2", "4"}, func(cfg *sim.Config, i int) {
			cfg.Geometry.Channels = chans[i]
		})
	if err != nil {
		return nil, err
	}
	t.AddNote("extra bandwidth shortens bursts; contention (and scheduler differences) shrink accordingly")
	return t, nil
}

func runX3(x *Context) (*Table, error) {
	bufs := []int{32, 64, 128, 256}
	t, err := sensitivity(x, "X3", "CSI across request buffer sizes", "buffer",
		[]string{"32", "64", "128", "256"}, func(cfg *sim.Config, i int) {
			cfg.Ctrl.ReadBufEntries = bufs[i]
		})
	if err != nil {
		return nil, err
	}
	t.AddNote("small buffers throttle memory-intensive threads at the core; larger buffers expose more reordering freedom")
	return t, nil
}

func runX4(x *Context) (*Table, error) {
	mk := func(label string, opts core.Options) variant {
		return parbsVariant(label, opts)
	}
	fixed := func(c int) core.Options {
		o := core.DefaultOptions()
		o.MarkingCap = c
		return o
	}
	adaptive := core.DefaultOptions()
	adaptive.AdaptiveCap = true
	adaptive.CapMin = 1
	adaptive.CapMax = 10
	variants := []variant{
		mk("fixed c=1", fixed(1)),
		mk("fixed c=5", fixed(5)),
		mk("fixed c=10", fixed(10)),
		mk("adaptive [1,10]", adaptive),
	}
	t, _, err := sweep(x, "X4", "Adaptive Marking-Cap (Section 8.3.1 future work) vs fixed caps", variants)
	if err != nil {
		return nil, err
	}
	t.AddNote("the adaptive cap tracks batch turnaround; it should sit between the best fixed caps without per-workload tuning")
	return t, nil
}

func runX5(x *Context) (*Table, error) {
	variants := []variant{
		{label: "NFQ (FQ-VFTF)", make: func() memctrl.Policy { return sched.NewNFQ() }},
		{label: "NFQ-ST (start-time)", make: func() memctrl.Policy { return sched.NewNFQStartTime() }},
		{label: "PAR-BS", make: func() memctrl.Policy { return sched.NewPARBSDefault() }},
	}
	t, results, err := sweep(x, "X5", "Start-time fair queueing (Rafique et al.) vs FQ-VFTF vs PAR-BS", variants)
	if err != nil {
		return nil, err
	}
	addSlowdowns(t, variants, results[0])
	t.AddNote("start-time fair queueing improves NFQ's fairness as its authors report, but remains parallelism-unaware")
	return t, nil
}

func runX6(x *Context) (*Table, error) {
	// 7.8 us at 2.5 ns/cycle is ~3120 cycles; sweep around it.
	trefis := []int64{0, 3120, 1560}
	results, err := csiGrid(x, len(trefis), func(cfg *sim.Config, i int) {
		cfg.Timing.TREFI = trefis[i]
	}, schedVariants("PAR-BS"))
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "X6", Title: "DRAM refresh impact on CSI (PAR-BS)",
		Header: []string{"tREFI (DRAM cycles)", "unfairness", "Wspeedup", "Hspeedup", "refreshes"}}
	for i, trefi := range trefis {
		r := results[i][0]
		label := "off"
		if trefi > 0 {
			label = fmt.Sprintf("%d", trefi)
		}
		t.AddRow(label, f2(r.Unfair), f3(r.WSpeedup), f3(r.HSpeedup), d(r.Raw.DRAM.Refreshes))
	}
	t.AddNote("refresh steals a small, scheduler-independent slice of bandwidth; the paper disables it, and so does our baseline")
	return t, nil
}

func runX7(x *Context) (*Table, error) {
	devices := []string{"DDR2-800", "DDR3-1333"}
	variants := schedVariants("FR-FCFS", "PAR-BS")
	results, err := csiGrid(x, len(devices), func(cfg *sim.Config, i int) {
		if devices[i] == "DDR3-1333" {
			cfg.Timing = dram.DDR3_1333()
			cfg.CPUCyclesPerDRAM = 6
		}
	}, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "X7", Title: "CSI on DDR2-800 (paper baseline) vs DDR3-1333",
		Header: []string{"device", "scheduler", "unfairness", "Wspeedup", "Hspeedup", "AST/req (CPU cyc)"}}
	for i, row := range results {
		for vi, r := range row {
			t.AddRow(devices[i], variants[vi].label, f2(r.Unfair), f3(r.WSpeedup), f3(r.HSpeedup), f1(r.AvgAST))
		}
	}
	t.AddNote("the faster device relieves contention; PAR-BS's fairness advantage persists across generations")
	return t, nil
}
