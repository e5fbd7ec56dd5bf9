package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	parbs "repro"
)

func testSpec(client string, seed int64) Spec {
	return Spec{
		Client:    client,
		System:    SystemSpec{Cores: 4, Seed: seed, MeasureCycles: 100_000, WarmupCycles: 10_000},
		Workload:  WorkloadSpec{Mix: "CSI"},
		Scheduler: SchedulerSpec{Name: "PAR-BS"},
	}
}

func TestSpecNormalizeRejectsBadInput(t *testing.T) {
	cases := map[string]Spec{
		"no cores":        {Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"bad mix":         {System: SystemSpec{Cores: 4}, Workload: WorkloadSpec{Mix: "nope"}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"no workload":     {System: SystemSpec{Cores: 4}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"mix+benchmarks":  {System: SystemSpec{Cores: 4}, Workload: WorkloadSpec{Mix: "CSI", Benchmarks: []string{"mcf"}}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"wrong count":     {System: SystemSpec{Cores: 8}, Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"bad scheduler":   {System: SystemSpec{Cores: 4}, Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "LRU"}},
		"no scheduler":    {System: SystemSpec{Cores: 4}, Workload: WorkloadSpec{Mix: "CSI"}},
		"bad device":      {System: SystemSpec{Cores: 4, Device: "rambus"}, Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"bad ranking":     {System: SystemSpec{Cores: 4}, Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "PAR-BS", Ranking: "alphabetical"}},
		"negative t/o":    {System: SystemSpec{Cores: 4}, Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "FCFS"}, TimeoutMS: -1},
		"bogus benchmark": {System: SystemSpec{Cores: 1}, Workload: WorkloadSpec{Benchmarks: []string{"doom"}}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"bad chan mode":   {System: SystemSpec{Cores: 4, ChannelMode: "ganged"}, Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "FCFS"}},
		"chans > cores":   {System: SystemSpec{Cores: 4, Channels: 8}, Workload: WorkloadSpec{Mix: "CSI"}, Scheduler: SchedulerSpec{Name: "FCFS"}},
	}
	for name, sp := range cases {
		if err := sp.normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := testSpec("alice", 1)
	if err := good.normalize(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if good.Client != "alice" {
		t.Error("normalize rewrote the client")
	}
	anon := testSpec("", 1)
	if err := anon.normalize(); err != nil || anon.Client != "anonymous" {
		t.Errorf("empty client normalized to %q (%v), want anonymous", anon.Client, err)
	}
}

// TestSpecNormalizeCeilings: each spec ceiling admits its limit and
// refuses one past it.
func TestSpecNormalizeCeilings(t *testing.T) {
	for _, c := range []struct {
		name   string
		set    func(sp *Spec, over bool)
		substr string
	}{
		{"trace.max_events", func(sp *Spec, over bool) {
			sp.Trace = &TraceSpec{MaxEvents: MaxTraceEvents + b2i(over)}
		}, "max_events"},
		{"telemetry.max_epochs", func(sp *Spec, over bool) {
			sp.Telemetry = &TelemetrySpec{MaxEpochs: MaxTelemetryEpochs + b2i(over)}
		}, "max_epochs"},
		{"measure_cycles", func(sp *Spec, over bool) {
			sp.System.MeasureCycles = MaxRunCycles - sp.System.WarmupCycles + int64(b2i(over))
		}, "measure_cycles"},
		{"warmup_cycles", func(sp *Spec, over bool) {
			sp.System.WarmupCycles = MaxRunCycles - sp.System.MeasureCycles + int64(b2i(over))
		}, "warmup_cycles"},
		{"defaulted measure", func(sp *Spec, over bool) {
			sp.System.MeasureCycles = 0
			sp.System.WarmupCycles = MaxRunCycles - defaultMeasureCycles + int64(b2i(over))
		}, "measure_cycles"},
		{"overflowing sum", func(sp *Spec, over bool) {
			if over {
				sp.System.MeasureCycles, sp.System.WarmupCycles = math.MaxInt64, math.MaxInt64
			}
		}, "measure_cycles"},
		{"billion banks", func(sp *Spec, over bool) {
			sp.System.Banks = 8
			if over {
				sp.System.Banks = 1 << 30
			}
		}, "Banks"},
	} {
		at, over := testSpec("c", 1), testSpec("c", 1)
		c.set(&at, false)
		c.set(&over, true)
		if err := at.normalize(); err != nil {
			t.Errorf("%s at its ceiling: rejected: %v", c.name, err)
		}
		if err := over.normalize(); err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s past its ceiling: error %v, want one naming %s", c.name, err, c.substr)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSpecHashIgnoresClientAndTimeout: the result cache must replay across
// clients and timeout settings but never across simulation parameters.
func TestSpecHashIgnoresClientAndTimeout(t *testing.T) {
	a, b := testSpec("alice", 1), testSpec("bob", 1)
	b.TimeoutMS = 5000
	if a.hash() != b.hash() {
		t.Error("hash depends on client or timeout")
	}
	c := testSpec("alice", 2)
	if a.hash() == c.hash() {
		t.Error("different seeds hash equal")
	}
	d := testSpec("alice", 1)
	d.Telemetry = &TelemetrySpec{EpochCycles: 10_240}
	if a.hash() == d.hash() {
		t.Error("telemetry request does not change the hash")
	}
	// Channel mode changes the simulated machine, so it changes the hash.
	f := testSpec("alice", 1)
	f.System.Channels = 2
	f.System.ChannelMode = "independent"
	if a.hash() == f.hash() {
		t.Error("channel mode does not change the hash")
	}
}

func TestSpecCostScalesWithCyclesAndCores(t *testing.T) {
	small := Spec{System: SystemSpec{Cores: 4, MeasureCycles: 100_000, WarmupCycles: 10_000}}
	big := Spec{System: SystemSpec{Cores: 8, MeasureCycles: 100_000, WarmupCycles: 10_000}}
	if small.cost() >= big.cost() {
		t.Errorf("cost(4 cores)=%d !< cost(8 cores)=%d", small.cost(), big.cost())
	}
	defaulted := Spec{System: SystemSpec{Cores: 4}}
	if got, want := defaulted.cost(), int64(4*(defaultMeasureCycles+defaultWarmupCycles)); got != want {
		t.Errorf("zero-cycle spec cost = %d, want defaults %d", got, want)
	}
}

func TestStoreCacheRoundTrip(t *testing.T) {
	st := NewStore(0, 0)
	now := time.Now()
	j1 := st.NewJob(testSpec("a", 1), now)
	j2 := st.NewJob(testSpec("a", 1), now)
	if j1.ID == j2.ID {
		t.Fatal("duplicate job IDs")
	}
	if _, ok := st.Get(j1.ID); !ok {
		t.Fatal("stored job not found")
	}
	if _, ok := st.Get("r-999999"); ok {
		t.Fatal("phantom job found")
	}
	if _, ok := st.Cached(j1.Hash); ok {
		t.Fatal("cache hit before any completion")
	}
	res := &Result{Report: json.RawMessage(`{"scheduler":"PAR-BS"}`)}
	st.Publish(j1, res)
	got, ok := st.Cached(j2.Hash)
	if !ok || string(got.Report) != string(res.Report) {
		t.Fatal("identical spec missed the cache")
	}
	if st.Jobs() != 2 {
		t.Errorf("store holds %d jobs, want 2", st.Jobs())
	}
}

func TestBroadcasterCoalescesAndCloses(t *testing.T) {
	b := newBroadcaster()
	ch, cancel := b.subscribe()
	defer cancel()
	// Publishing twice without a read keeps only the newest snapshot.
	b.publish(parbs.Progress{CPUCycles: 1})
	b.publish(parbs.Progress{CPUCycles: 2})
	if p := <-ch; p.CPUCycles != 2 {
		t.Errorf("read stale snapshot %d, want 2", p.CPUCycles)
	}
	b.close()
	if _, open := <-ch; open {
		t.Error("subscriber channel still open after close")
	}
	// Late subscribers see a closed channel, publish is a no-op.
	late, _ := b.subscribe()
	b.publish(parbs.Progress{CPUCycles: 3})
	if _, open := <-late; open {
		t.Error("late subscriber channel open after close")
	}
}
