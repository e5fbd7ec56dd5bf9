package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// This file reproduces the paper's Tables 1-3: the hardware cost inventory,
// the baseline configuration, and the benchmark characterization.

func init() {
	register(Experiment{ID: "T1", Title: "PAR-BS hardware state beyond FR-FCFS (exact)", Run: runT1})
	register(Experiment{ID: "T2", Title: "Baseline CMP and memory system configuration", Run: runT2})
	register(Experiment{ID: "T3", Title: "Benchmark characteristics: measured vs paper", Run: runT3})
}

func runT1(x *Context) (*Table, error) {
	const (
		threads = 8
		entries = 128
		banks   = 8
	)
	t := &Table{
		ID: "T1", Title: "Additional state for an 8-core CMP, 128-entry buffer, 8 banks",
		Header: []string{"register", "bits each", "count", "total bits"},
	}
	rows := []struct {
		name  string
		each  int
		count int
	}{
		{"Marked (per request)", 1, entries},
		{"Priority thread-rank field (per request)", 3, entries},
		{"Thread-ID (per request)", 3, entries},
		{"ReqsInBankPerThread", 7, threads * banks},
		{"ReqsPerThread", 7, threads},
		{"TotalMarkedRequests", 7, 1},
		{"Marking-Cap", 5, 1},
	}
	total := 0
	for _, r := range rows {
		t.AddRow(r.name, d(int64(r.each)), d(int64(r.count)), d(int64(r.each*r.count)))
		total += r.each * r.count
	}
	got := core.StateBits(threads, entries, banks)
	t.AddRow("TOTAL", "", "", d(int64(total)))
	t.AddNote("StateBits(%d,%d,%d) = %d bits; paper reports 1412", threads, entries, banks, got)
	if got != 1412 || total != 1412 {
		t.AddNote("MISMATCH: expected exactly 1412 bits")
	}
	return t, nil
}

func runT2(x *Context) (*Table, error) {
	cfg := x.Config(4)
	tm := cfg.Timing
	t := &Table{
		ID: "T2", Title: "Baseline configuration vs paper Table 2",
		Header: []string{"parameter", "ours", "paper"},
	}
	ns := func(cycles int64) string { return fmt.Sprintf("%.1f ns", float64(cycles)*2.5) }
	t.AddRow("cores : channels", fmt.Sprintf("%d : %d", cfg.Cores, cfg.Geometry.Channels), "4:1, 8:2, 16:4")
	t.AddRow("request buffer", d(int64(cfg.Ctrl.ReadBufEntries)), "128")
	t.AddRow("write buffer", d(int64(cfg.Ctrl.WriteBufEntries)), "64")
	t.AddRow("instruction window", d(int64(cfg.Core.WindowSize)), "128")
	t.AddRow("commit width", d(int64(cfg.Core.CommitWidth)), "3")
	t.AddRow("MSHRs", d(int64(cfg.Core.MSHRs)), "32")
	t.AddRow("banks", d(int64(cfg.Geometry.Banks)), "8")
	t.AddRow("row size", d(cfg.Geometry.RowBytes), "2048")
	t.AddRow("tCL", ns(tm.TCL), "15 ns")
	t.AddRow("tRCD", ns(tm.TRCD), "15 ns")
	t.AddRow("tRP", ns(tm.TRP), "15 ns")
	t.AddRow("BL/2", ns(tm.TBurst), "10 ns")
	// Uncontended round trip: command-to-data (tCL + burst) plus the
	// L2-path overhead, with tRCD/tRP prepended for closed/conflict rows.
	data := tm.TCL + tm.TBurst
	hit := data*cfg.CPUCyclesPerDRAM + cfg.CompletionOverheadCPU
	closed := (tm.TRCD+data)*cfg.CPUCyclesPerDRAM + cfg.CompletionOverheadCPU
	conflict := (tm.TRP+tm.TRCD+data)*cfg.CPUCyclesPerDRAM + cfg.CompletionOverheadCPU
	t.AddRow("round-trip row hit", fmt.Sprintf("%d cyc", hit), "160 cyc (40 ns)")
	t.AddRow("round-trip closed", fmt.Sprintf("%d cyc", closed), "240 cyc (60 ns)")
	t.AddRow("round-trip conflict", fmt.Sprintf("%d cyc", conflict), "320 cyc (80 ns)")
	return t, nil
}

func runT3(x *Context) (*Table, error) {
	cfg := x.Config(4)
	bs := workload.Benchmarks()
	t := &Table{
		ID: "T3", Title: "Alone-run characterization on the baseline 4-core memory system",
		Header: []string{"benchmark", "cat", "MPKI", "(paper)", "RBhit", "(paper)", "BLP", "(paper)", "MCPI", "(paper)", "AST/req", "(paper)"},
	}
	outs, err := x.alone.Start(cfg, bs, true, nil).Wait()
	if err != nil {
		return nil, err
	}
	for i, p := range bs {
		out := outs[i]
		t.AddRow(p.Name, d(int64(p.Category)),
			f2(out.CPU.MPKI()), f2(p.MPKI),
			f3(out.Mem.RowHitRate()), f3(p.RowHit),
			f2(out.Mem.BLP()), f2(p.BLP),
			f2(out.CPU.MCPI()), f2(p.MCPI),
			f1(out.CPU.ASTPerReq()), f1(p.ASTPerReq))
	}
	t.AddNote("targets are the paper's Table 3; MPKI/RBhit/BLP are generation targets, MCPI and AST/req emerge from our memory system")
	return t, nil
}
