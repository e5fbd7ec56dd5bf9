package exp

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file reproduces the aggregate evaluations: Figure 8 (100 4-core
// workloads), Figure 9 (8-core), Figure 10 (16-core) and Table 4 (summary
// across all system sizes).

func init() {
	register(Experiment{ID: "F8", Title: "4-core: 10 sample workloads + GMEAN over the full set", Run: runF8})
	register(Experiment{ID: "F9", Title: "8-core mixed workload", Run: runF9})
	register(Experiment{ID: "F10", Title: "16-core: 5 sample workloads + GMEAN over 12", Run: runF10})
	register(Experiment{ID: "T4", Title: "Summary: fairness and throughput on 4/8/16-core systems", Run: runT4})
}

// aggregate holds per-scheduler geometric means over a workload set.
type aggregate struct {
	Unfair, WSp, HSp, AST float64
	WCLat                 int64
}

// runSet evaluates every scheduler on every mix (in parallel) and returns
// per-scheduler aggregates plus the results indexed [mix][scheduler] for
// sample columns.
func runSet(x *Context, cores int, mixes []workload.Mix) (map[string]aggregate, [][]MixResult, error) {
	names := sched.Names()
	results, err := runGrid(x, x.Config(cores), mixes, schedVariants(names...))
	if err != nil {
		return nil, nil, err
	}
	aggs := map[string]aggregate{}
	for si, name := range names {
		var unf, wsp, hsp, ast []float64
		var wc int64
		for _, row := range results {
			r := row[si]
			unf = append(unf, r.Unfair)
			wsp = append(wsp, r.WSpeedup)
			hsp = append(hsp, r.HSpeedup)
			ast = append(ast, r.AvgAST)
			if r.WCLatency > wc {
				wc = r.WCLatency
			}
		}
		aggs[name] = aggregate{
			Unfair: stats.GeoMean(unf),
			WSp:    stats.GeoMean(wsp),
			HSp:    stats.GeoMean(hsp),
			AST:    stats.Mean(ast),
			WCLat:  wc,
		}
	}
	return aggs, results, nil
}

func runF8(x *Context) (*Table, error) {
	samples := workload.Figure8Samples()
	n := x.MixCount(100)
	mixes := append([]workload.Mix{}, samples...)
	extra := workload.RandomMixes(n, 4, x.Seed)
	if x.Quick {
		mixes = mixes[:3]
	}
	mixes = append(mixes, extra...)
	aggs, results, err := runSet(x, 4, mixes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "F8", Title: fmt.Sprintf("Unfairness and throughput over %d 4-core workloads", len(mixes)),
		Header: []string{"scheduler", "GMEAN unfairness", "GMEAN Wspeedup", "GMEAN Hspeedup"},
	}
	for _, name := range sched.Names() {
		a := aggs[name]
		t.AddRow(name, f2(a.Unfair), f3(a.WSp), f3(a.HSp))
	}
	// Sample columns: unfairness per sample workload under each scheduler.
	for i, m := range mixes {
		if i >= len(samples) || (x.Quick && i >= 3) {
			break
		}
		row := fmt.Sprintf("%s (%v):", m.Name, workload.Names(m.Benchmarks))
		for si, name := range sched.Names() {
			row += fmt.Sprintf(" %s=%.2f", name, results[i][si].Unfair)
		}
		t.AddNote("sample unfairness %s", row)
	}
	t.AddNote("paper GMEAN over 100 workloads: unfairness 3.12/1.64/1.56/1.36/1.22; PAR-BS improves fairness 1.11X and hmean-speedup 8.3%% over STFM")
	return t, nil
}

func runF9(x *Context) (*Table, error) {
	mix := workload.Figure9Workload()
	t, _, err := caseStudyTable(x, "F9", "8-core mixed workload (3 intensive + 5 non-intensive)", mix)
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: unfairness 4.78/4.54/3.21/1.66/1.39; all prior schedulers slow mcf >= 3.5X, PAR-BS 2.8X")
	return t, nil
}

func runF10(x *Context) (*Table, error) {
	samples := workload.Figure10Samples()
	n := x.MixCount(12)
	mixes := append([]workload.Mix{}, samples...)
	if x.Quick {
		mixes = mixes[:2]
	}
	mixes = append(mixes, workload.RandomMixes(n, 16, x.Seed+2)...)
	aggs, results, err := runSet(x, 16, mixes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "F10", Title: fmt.Sprintf("Unfairness and throughput over %d 16-core workloads", len(mixes)),
		Header: []string{"scheduler", "GMEAN unfairness", "GMEAN Wspeedup", "GMEAN Hspeedup"},
	}
	for _, name := range sched.Names() {
		a := aggs[name]
		t.AddRow(name, f2(a.Unfair), f3(a.WSp), f3(a.HSp))
	}
	for i := range samples {
		if i >= len(mixes) || (x.Quick && i >= 2) {
			break
		}
		row := samples[i].Name + ":"
		for si, name := range sched.Names() {
			row += fmt.Sprintf(" %s=%.2f", name, results[i][si].Unfair)
		}
		t.AddNote("sample unfairness %s", row)
	}
	t.AddNote("paper GMEAN over 12 workloads: unfairness 4.99/3.06/3.74/1.81/1.63; PAR-BS +3.2%% weighted, +5.1%% hmean vs STFM")
	return t, nil
}

func runT4(x *Context) (*Table, error) {
	t := &Table{
		ID: "T4", Title: "Summary across system sizes (GMEAN unfairness/speedups, mean AST, max WC latency)",
		Header: []string{"system", "scheduler", "unfairness", "Wspeedup", "Hspeedup", "AST/req", "WC lat"},
	}
	type sys struct {
		cores int
		mixes []workload.Mix
	}
	systems := []sys{
		{4, append(workload.Figure8Samples(), workload.RandomMixes(x.MixCount(90), 4, x.Seed)...)},
		{8, append([]workload.Mix{workload.Figure9Workload()}, workload.RandomMixes(x.MixCount(15), 8, x.Seed+1)...)},
		{16, append(workload.Figure10Samples(), workload.RandomMixes(x.MixCount(7), 16, x.Seed+2)...)},
	}
	if x.Quick {
		for i := range systems {
			if len(systems[i].mixes) > 4 {
				systems[i].mixes = systems[i].mixes[:4]
			}
		}
	}
	for _, s := range systems {
		aggs, _, err := runSet(x, s.cores, s.mixes)
		if err != nil {
			return nil, err
		}
		for _, name := range sched.Names() {
			a := aggs[name]
			t.AddRow(fmt.Sprintf("%d-core", s.cores), name, f2(a.Unfair), f3(a.WSp), f3(a.HSp), f1(a.AST), d(a.WCLat))
		}
		st, pb := aggs["STFM"], aggs["PAR-BS"]
		t.AddRow(fmt.Sprintf("%d-core", s.cores), "PAR-BS vs STFM",
			fmt.Sprintf("%.2fX", st.Unfair/pb.Unfair),
			fmt.Sprintf("%+.1f%%", 100*(pb.WSp/st.WSp-1)),
			fmt.Sprintf("%+.1f%%", 100*(pb.HSp/st.HSp-1)),
			fmt.Sprintf("%+.1f%%", 100*(1-pb.AST/st.AST)),
			fmt.Sprintf("%.2fX", float64(st.WCLat)/float64(pb.WCLat)))
	}
	t.AddNote("paper deltas vs STFM: fairness 1.11X/1.08X/1.11X, weighted +4.4/+4.3/+3.2%%, hmean +8.3/+6.1/+5.1%%, AST -7.1/-5.9/-5.3%%, WC 1.46X/2.26X/2.11X for 4/8/16 cores")
	return t, nil
}
