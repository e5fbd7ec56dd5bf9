package exp

import (
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Second batch of extension experiments: channel organization and the
// hard-QoS / capped baselines from the paper's related-work section.

func init() {
	register(Experiment{ID: "X8", Title: "[extension] Lock-step (ganged) vs independent channels", Run: runX8})
	register(Experiment{ID: "X9", Title: "[extension] Hard-QoS and capped baselines vs PAR-BS", Run: runX9})
}

// runX8 compares the paper's lock-step channel organization against fully
// independent per-channel controllers at equal aggregate bandwidth, on the
// 8-core workload (2 channels).
func runX8(x *Context) (*Table, error) {
	mix := workload.Figure9Workload()
	cfg := x.Config(8)
	variants := schedVariants("FR-FCFS", "PAR-BS")
	results, err := runGrid(x, cfg, []workload.Mix{mix}, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "X8", Title: "8-core mixed workload: channel organization",
		Header: []string{"organization", "scheduler", "unfairness", "Wspeedup", "Hspeedup", "WC lat"}}
	for vi, r := range results[0] {
		t.AddRow("lock-step", variants[vi].label, f2(r.Unfair), f3(r.WSpeedup), f3(r.HSpeedup), d(r.WCLatency))
	}
	for _, v := range variants {
		res, err := sim.RunIndependent(cfg, mix, v.make)
		if err != nil {
			return nil, err
		}
		r, err := x.compare(cfg, mix, res)
		if err != nil {
			return nil, err
		}
		t.AddRow("independent", v.label, f2(r.Unfair), f3(r.WSpeedup), f3(r.HSpeedup), d(r.WCLatency))
	}
	t.AddNote("alone baselines use the lock-step organization in both cases, so rows compare shared-mode behavior at equal bandwidth")
	t.AddNote("independent channels split the scheduler's view: PAR-BS batches per channel, slightly weakening cross-bank ranking but also halving per-controller load")
	return t, nil
}

// runX9 places the hard-partitioning and streak-capped baselines on the
// fairness/throughput map next to the paper's schedulers.
func runX9(x *Context) (*Table, error) {
	variants := []variant{
		{label: "FR-FCFS", make: func() memctrl.Policy { return sched.NewFRFCFS() }},
		{label: "FR-FCFS+Cap(4)", make: func() memctrl.Policy { return sched.NewFRFCFSCap(4) }},
		{label: "TDM(64)", make: func() memctrl.Policy { return sched.NewTDM(64) }},
		{label: "TDM-strict(64)", make: func() memctrl.Policy { return sched.NewStrictTDM(64) }},
		{label: "PAR-BS", make: func() memctrl.Policy { return sched.NewPARBSDefault() }},
	}
	t, results, err := sweep(x, "X9", "Hard-QoS (TDM) and capped (FR-FCFS+Cap) baselines vs PAR-BS", variants)
	if err != nil {
		return nil, err
	}
	addSlowdowns(t, variants, results[0])
	t.AddNote("the paper's Section 9 notes hard real-time controllers trade unacceptable throughput for guarantees; strict TDM shows that cost, while PAR-BS reaches similar fairness without it")
	return t, nil
}
