package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/workload"
)

// This file reproduces Figure 14: system-level thread priority support —
// weighted lbm copies (left) and purely opportunistic service (right).

func init() {
	register(Experiment{ID: "F14", Title: "Thread priorities and opportunistic service", Run: runF14})
}

func runF14(x *Context) (*Table, error) {
	t := &Table{
		ID: "F14", Title: "Thread priority support: slowdowns per thread",
		Header: []string{"scenario", "scheduler", "t0", "t1", "t2", "t3"},
	}

	// Left: four copies of lbm with NFQ/STFM weights 8-8-4-1 and PAR-BS
	// priorities 1-1-2-8 (priority 1 == weight 8).
	lbm := workload.CaseStudyIII()
	weights := []float64{8, 8, 4, 1}
	prios := []int{1, 1, 2, 8}
	left := []variant{
		{label: "FR-FCFS", make: func() memctrl.Policy { return sched.NewFRFCFS() }},
		{label: "NFQ-shares-8-8-4-1", make: func() memctrl.Policy { return sched.NewNFQWeighted(weights) }},
		{label: "STFM-weights-8-8-4-1", make: func() memctrl.Policy { return sched.NewSTFMWeighted(weights) }},
		{label: "PAR-BS-pri-1-1-2-8", make: func() memctrl.Policy {
			o := core.DefaultOptions()
			o.Priorities = prios
			return sched.NewPARBS(o)
		}},
	}
	if err := prioRows(x, t, "4x lbm weighted", lbm, left); err != nil {
		return nil, err
	}

	// Right: omnetpp is the only important thread; the rest are served
	// opportunistically (PAR-BS level L; NFQ/STFM approximate with weight
	// 8192 vs 1 as in the paper).
	mix, err := workload.MixOf("opportunistic", "libquantum", "milc", "omnetpp", "astar")
	if err != nil {
		return nil, err
	}
	big := []float64{1, 1, 8192, 1}
	right := []variant{
		{label: "FR-FCFS", make: func() memctrl.Policy { return sched.NewFRFCFS() }},
		{label: "NFQ-1-1-8K-1", make: func() memctrl.Policy { return sched.NewNFQWeighted(big) }},
		{label: "STFM-1-1-8K-1", make: func() memctrl.Policy { return sched.NewSTFMWeighted(big) }},
		{label: "PAR-BS-L-L-0-L", make: func() memctrl.Policy {
			o := core.DefaultOptions()
			o.Priorities = []int{core.OpportunisticPriority, core.OpportunisticPriority, 1, core.OpportunisticPriority}
			return sched.NewPARBS(o)
		}},
	}
	if err := prioRows(x, t, "omnetpp high, rest opportunistic", mix, right); err != nil {
		return nil, err
	}
	t.AddNote("paper left: highest-priority lbm slows 2.09 (NFQ) / 2.15 (STFM) / 1.88 (PAR-BS)")
	t.AddNote("paper right: omnetpp slows 1.19 (NFQ) / 1.14 (STFM) / 1.04 (PAR-BS)")
	return t, nil
}

func prioRows(x *Context, t *Table, scenario string, mix workload.Mix, variants []variant) error {
	results, err := runGrid(x, x.Config(len(mix.Benchmarks)), []workload.Mix{mix}, variants)
	if err != nil {
		return err
	}
	for vi, r := range results[0] {
		row := []string{scenario, variants[vi].label}
		for _, c := range r.Cs {
			row = append(row, fmt.Sprintf("%.2f", c.MemSlowdown()))
		}
		t.AddRow(row...)
	}
	return nil
}
