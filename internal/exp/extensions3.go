package exp

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Third batch of extension experiments: controller page policy and
// address-mapping trade-offs.

func init() {
	register(Experiment{ID: "X10", Title: "[extension] Open-page vs closed-page row policy", Run: runX10})
	register(Experiment{ID: "X11", Title: "[extension] Row-interleaved vs line-interleaved address mapping", Run: runX11})
}

// runX10 contrasts the baseline open-page policy (rows stay open, row-hit
// scheduling exploits them) against closed-page (every access
// auto-precharges unless a queued request wants the row).
func runX10(x *Context) (*Table, error) {
	labels := []string{"open-page", "closed-page"}
	variants := schedVariants("FR-FCFS", "PAR-BS")
	results, err := csiGrid(x, len(labels), func(cfg *sim.Config, i int) {
		cfg.Ctrl.ClosedPage = labels[i] == "closed-page"
	}, variants)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "X10", Title: "CSI under open-page vs closed-page controllers",
		Header: []string{"page policy", "scheduler", "unfairness", "Wspeedup", "Hspeedup", "row-hit rate"}}
	for i, row := range results {
		for vi, r := range row {
			t.AddRow(labels[i], variants[vi].label, f2(r.Unfair), f3(r.WSpeedup), f3(r.HSpeedup), f3(r.Raw.DRAM.RowHitRate()))
		}
	}
	t.AddNote("closed page trades the streamers' row hits for faster conflicts; it also blunts FR-FCFS's bank-capture unfairness — batching gets the same effect without losing the hits")
	return t, nil
}

// runX11 demonstrates the mapping trade-off with a recorded trace: lbm is
// recorded under the baseline row-interleaved layout, then the same
// address stream is replayed on a line-interleaved device, which turns its
// sequential rows into bank-alternating accesses.
func runX11(x *Context) (*Table, error) {
	base := x.Config(1)
	base.Geometry.Channels = 1
	items := workload.RecordTrace(workload.MustByName("lbm"), 0, base.Geometry, x.Seed, 80_000)

	t := &Table{ID: "X11", Title: "lbm's recorded address stream under two address mappings (alone)",
		Header: []string{"mapping", "row-hit rate", "BLP", "MCPI", "AST/req"}}
	for _, lineIl := range []bool{false, true} {
		cfg := base
		cfg.Geometry.LineInterleaved = lineIl
		label := "row-interleaved (baseline)"
		if lineIl {
			label = "line-interleaved"
		}
		replay := workload.TraceProfile("lbm-replay", items, cfg.Geometry, true)
		out, err := sim.RunAlone(cfg, replay)
		if err != nil {
			return nil, err
		}
		t.AddRow(label, f3(out.Mem.RowHitRate()), f2(out.Mem.BLP()), f2(out.CPU.MCPI()), f1(out.CPU.ASTPerReq()))
	}
	t.AddNote("line interleaving converts row locality into bank spread: hits drop, BLP rises — whether that wins depends on whether the scheduler can use the parallelism")
	return t, nil
}
