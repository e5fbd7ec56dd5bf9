package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file reproduces the Section 8.3 analysis figures: Figure 11
// (Marking-Cap), Figure 12 (batching choice) and Figure 13 (within-batch
// ranking schemes).

func init() {
	register(Experiment{ID: "F11", Title: "Effect of Marking-Cap", Run: runF11})
	register(Experiment{ID: "F12", Title: "Effect of batching choice (static/eslot/full)", Run: runF12})
	register(Experiment{ID: "F13", Title: "Effect of within-batch ranking scheme", Run: runF13})
}

// sweep evaluates each variant over sweepMixes on the 4-core system and
// tabulates per-variant GMEAN (unfairness, weighted, hmean). It also returns
// the results indexed [mix][variant]; rows 0 and 1 are CSI and CSII.
func sweep(x *Context, id, title string, variants []variant) (*Table, [][]MixResult, error) {
	results, err := runGrid(x, x.Config(4), sweepMixes(x), variants)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{ID: id, Title: title, Header: []string{"variant", "GMEAN unfairness", "GMEAN Wspeedup", "GMEAN Hspeedup"}}
	for vi, v := range variants {
		var unf, wsp, hsp []float64
		for _, row := range results {
			r := row[vi]
			unf = append(unf, r.Unfair)
			wsp = append(wsp, r.WSpeedup)
			hsp = append(hsp, r.HSpeedup)
		}
		t.AddRow(v.label, f2(stats.GeoMean(unf)), f3(stats.GeoMean(wsp)), f3(stats.GeoMean(hsp)))
	}
	return t, results, nil
}

// addSlowdowns notes each variant's per-thread memory slowdowns on one mix,
// given that mix's results in variant order.
func addSlowdowns(t *Table, variants []variant, row []MixResult) {
	for vi, r := range row {
		s := fmt.Sprintf("%s [%s]:", r.Mix.Name, variants[vi].label)
		for j, c := range r.Cs {
			s += fmt.Sprintf(" %s=%.2f", r.Mix.Benchmarks[j].Name, c.MemSlowdown())
		}
		t.AddNote("%s", s)
	}
}

// sweepMixes is the workload set used by the Section 8.3 sweeps.
func sweepMixes(x *Context) []workload.Mix {
	n := x.MixCount(24)
	return append([]workload.Mix{workload.CaseStudyI(), workload.CaseStudyII()},
		workload.RandomMixes(n, 4, x.Seed+11)...)
}

func parbsVariant(label string, opts core.Options) variant {
	return variant{label: label, make: func() memctrl.Policy { return sched.NewPARBS(opts) }}
}

func runF11(x *Context) (*Table, error) {
	caps := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20}
	if x.Quick {
		caps = []int{1, 3, 5, 10}
	}
	var variants []variant
	for _, c := range caps {
		o := core.DefaultOptions()
		o.MarkingCap = c
		variants = append(variants, parbsVariant(fmt.Sprintf("c=%d", c), o))
	}
	noCap := core.DefaultOptions()
	noCap.MarkingCap = 0
	variants = append(variants, parbsVariant("no-c", noCap))

	t, results, err := sweep(x, "F11", "PAR-BS fairness and throughput vs Marking-Cap (4-core)", variants)
	if err != nil {
		return nil, err
	}
	addSlowdowns(t, variants, results[0])
	addSlowdowns(t, variants, results[1])
	t.AddNote("paper: c=1 gives the worst throughput (destroys locality); c=5 is the sweet spot; very large caps re-introduce FR-FCFS-like unfairness")
	return t, nil
}

func runF12(x *Context) (*Table, error) {
	durationsCPU := []int64{400, 800, 1600, 3200, 6400, 12800, 25600}
	if x.Quick {
		durationsCPU = []int64{400, 3200, 25600}
	}
	var variants []variant
	for _, dur := range durationsCPU {
		o := core.DefaultOptions()
		o.Batch = core.StaticBatching
		o.BatchDuration = dur / 10 // CPU cycles -> DRAM cycles
		variants = append(variants, parbsVariant(fmt.Sprintf("st-%d", dur), o))
	}
	eslot := core.DefaultOptions()
	eslot.Batch = core.EmptySlotBatching
	variants = append(variants, parbsVariant("eslot", eslot))
	variants = append(variants, parbsVariant("full", core.DefaultOptions()))

	t, results, err := sweep(x, "F12", "Batching choice: time-based static vs empty-slot vs full (4-core)", variants)
	if err != nil {
		return nil, err
	}
	addSlowdowns(t, variants, results[0])
	addSlowdowns(t, variants, results[1])
	t.AddNote("paper: small static durations degenerate to rank/row-hit-first (unfair); the static sweet spot is 3200 cycles; full batching is best on average")
	return t, nil
}

func rankVariants(x *Context) []variant {
	mk := func(label string, r core.RankMode) variant {
		o := core.DefaultOptions()
		o.Rank = r
		o.Seed = x.Seed
		return parbsVariant(label, o)
	}
	return []variant{
		mk("max-total(PAR-BS)", core.MaxTotal),
		mk("total-max", core.TotalMax),
		mk("random", core.RandomRank),
		mk("round-robin", core.RoundRobin),
		mk("no-rank(FR-FCFS)", core.NoRankFRFCFS),
		mk("no-rank(FCFS)", core.NoRankFCFS),
		{label: "STFM (reference)", make: func() memctrl.Policy { return sched.NewSTFM() }},
	}
}

func runF13(x *Context) (*Table, error) {
	variants := rankVariants(x)
	t, _, err := sweep(x, "F13", "Within-batch ranking schemes vs STFM (4-core)", variants)
	if err != nil {
		return nil, err
	}
	matlab4, err := workload.FourCopies("matlab")
	if err != nil {
		return nil, err
	}
	results, err := runGrid(x, x.Config(4), []workload.Mix{workload.CaseStudyIII(), matlab4}, variants)
	if err != nil {
		return nil, err
	}
	addSlowdowns(t, variants, results[0])
	addSlowdowns(t, variants, results[1])
	t.AddNote("paper: random/round-robin lose 5.7%%/9.8%% weighted/hmean vs Max-Total; no-rank FR-FCFS loses 4.7%%/10.7%%; ranking matters for 4x lbm (high BLP), not for 4x matlab")
	return t, nil
}
