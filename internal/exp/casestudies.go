package exp

import (
	"repro/internal/sched"
	"repro/internal/workload"
)

// This file reproduces the 4-core case studies of Section 8.1: Figure 5
// (memory-intensive mix), Figure 6 (non-intensive mix) and Figure 7 (four
// copies of lbm).

func init() {
	register(Experiment{ID: "F5", Title: "Case Study I: memory-intensive workload", Run: runF5})
	register(Experiment{ID: "F6", Title: "Case Study II: non-intensive workload", Run: runF6})
	register(Experiment{ID: "F7", Title: "Case Study III: four copies of lbm", Run: runF7})
}

// caseStudyTable runs the mix under all five schedulers and tabulates
// per-thread memory slowdowns, unfairness and system throughput. It also
// returns the results in sched.Names() order.
func caseStudyTable(x *Context, id, title string, mix workload.Mix) (*Table, []MixResult, error) {
	results, err := runGrid(x, x.Config(len(mix.Benchmarks)), []workload.Mix{mix}, schedVariants(sched.Names()...))
	if err != nil {
		return nil, nil, err
	}
	header := []string{"scheduler"}
	for _, p := range mix.Benchmarks {
		header = append(header, p.Name)
	}
	header = append(header, "unfairness", "Wspeedup", "Hspeedup", "AST/req", "WC lat")
	t := &Table{ID: id, Title: title, Header: header}
	for _, r := range results[0] {
		row := []string{r.Policy}
		for _, c := range r.Cs {
			row = append(row, f2(c.MemSlowdown()))
		}
		row = append(row, f2(r.Unfair), f3(r.WSpeedup), f3(r.HSpeedup), f1(r.AvgAST), d(r.WCLatency))
		t.AddRow(row...)
	}
	return t, results[0], nil
}

func runF5(x *Context) (*Table, error) {
	t, _, err := caseStudyTable(x, "F5", "Memory slowdowns and throughput, CSI (libquantum+mcf+GemsFDTD+xalancbmk)", workload.CaseStudyI())
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: unfairness 5.26 (FR-FCFS) / 1.72 (FCFS) / 1.71 (NFQ) / 1.42 (STFM) / 1.07 (PAR-BS); PAR-BS best fairness and throughput")
	return t, nil
}

func runF6(x *Context) (*Table, error) {
	t, _, err := caseStudyTable(x, "F6", "Memory slowdowns and throughput, CSII (matlab+h264ref+omnetpp+hmmer)", workload.CaseStudyII())
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: unfairness 3.90 / 1.47 / 1.87 / 1.30 / 1.19; only PAR-BS avoids penalizing high-BLP omnetpp")
	return t, nil
}

func runF7(x *Context) (*Table, error) {
	t, results, err := caseStudyTable(x, "F7", "Four copies of lbm: fairness trivial, throughput differs", workload.CaseStudyIII())
	if err != nil {
		return nil, err
	}
	// Row-buffer hit rate per scheduler: the paper reports NFQ destroying
	// lbm's locality (61% -> 31%).
	rates := make([]string, len(results))
	for i, r := range results {
		rates[i] = f3(r.Raw.DRAM.RowHitRate())
	}
	t.AddNote("device row-hit rate by scheduler (%v): %v", sched.Names(), rates)
	t.AddNote("paper: all schedulers fair (unfairness 1.00); NFQ loses the most locality and throughput; PAR-BS best throughput")
	return t, nil
}
