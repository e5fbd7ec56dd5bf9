package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestRunIndependentBasics(t *testing.T) {
	cfg := quickCfg(8) // 2 channels by default
	mix := workload.Figure9Workload()
	res, err := RunIndependent(cfg, mix, func() memctrl.Policy { return sched.NewPARBSDefault() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "PAR-BS x2-independent" {
		t.Errorf("policy = %q", res.Policy)
	}
	var reads int64
	for i, th := range res.Threads {
		if th.CPU.Instructions == 0 {
			t.Errorf("thread %d made no progress", i)
		}
		reads += th.Mem.ReadsCompleted
	}
	if reads == 0 || res.DRAM.Reads == 0 {
		t.Fatal("no memory traffic through independent channels")
	}
	// Requests in flight across the warmup reset complete after the device
	// counters are wiped, so allow a small skew.
	if diff := reads - res.DRAM.Reads; diff < -64 || diff > 64 {
		t.Errorf("thread reads %d vs device reads %d: skew too large", reads, res.DRAM.Reads)
	}
	if u := res.BusUtilization(); u <= 0 || u > 1 {
		t.Errorf("bus utilization %v out of range", u)
	}
}

func TestRunIndependentValidation(t *testing.T) {
	cfg := quickCfg(8)
	short := workload.Mix{Name: "short", Benchmarks: workload.Figure9Workload().Benchmarks[:2]}
	if _, err := RunIndependent(cfg, short, func() memctrl.Policy { return sched.NewFCFS() }); err == nil {
		t.Error("mismatched mix accepted")
	}
	if _, err := RunIndependent(cfg, workload.Figure9Workload(), func() memctrl.Policy { return nil }); err == nil {
		t.Error("nil factory product accepted")
	}
	bad := cfg
	bad.Cores = 0
	if _, err := RunIndependent(bad, workload.Figure9Workload(), func() memctrl.Policy { return sched.NewFCFS() }); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestIndependentCancellation proves a canceled context aborts a sharded
// run at its first checkpoint with an error wrapping the cancellation.
func TestIndependentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel up front: the first checkpoint must observe it
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 400_000
	cfg.Geometry.Channels = 4
	cfg.Context = ctx
	_, err := RunIndependent(cfg, workload.CaseStudyI(), func() memctrl.Policy { return sched.NewPARBSDefault() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: error %v, want one wrapping context.Canceled", err)
	}
}

// TestChannelPortRouting checks line-granularity channel spreading and
// address compaction through the XOR-fold route: line 0 stays on channel 0,
// lines 1 and 2 fold to channel 1 for n=2, and per-controller addresses
// are contiguous.
func TestChannelPortRouting(t *testing.T) {
	p := &channelPort{line: 64, chans: 2}
	c0, a0 := p.routeIndex(0)
	c1, a1 := p.routeIndex(64)
	c2, a2 := p.routeIndex(128)
	if c0 != 0 || c1 != 1 || c2 != 1 {
		t.Errorf("channel routing = %d,%d,%d; want 0,1,1", c0, c1, c2)
	}
	if a0 != 0 || a1 != 0 || a2 != 64 {
		t.Errorf("compacted addrs = %d,%d,%d; want 0,0,64", a0, a1, a2)
	}
}

// routeIndex mirrors the port's routing for testing.
func (p *channelPort) routeIndex(addr int64) (int, int64) {
	return dram.ChannelRoute(addr, p.line, p.chans)
}

// TestIndependentVsGangedComparable: with the same aggregate bandwidth the
// two organizations should deliver broadly similar throughput on the same
// workload (within 35%), while per-channel scheduler state differs.
func TestIndependentVsGangedComparable(t *testing.T) {
	cfg := quickCfg(8)
	cfg.MeasureCPUCycles = 800_000
	mix := workload.Figure9Workload()
	ganged, err := Run(cfg, mix, sched.NewPARBSDefault())
	if err != nil {
		t.Fatal(err)
	}
	indep, err := RunIndependent(cfg, mix, func() memctrl.Policy { return sched.NewPARBSDefault() })
	if err != nil {
		t.Fatal(err)
	}
	var gi, ii int64
	for i := range ganged.Threads {
		gi += ganged.Threads[i].CPU.Instructions
		ii += indep.Threads[i].CPU.Instructions
	}
	lo, hi := float64(gi)*0.65, float64(gi)*1.35
	if float64(ii) < lo || float64(ii) > hi {
		t.Errorf("independent throughput %d vs ganged %d: outside comparable band", ii, gi)
	}
}
