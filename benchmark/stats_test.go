package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {21, 20}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50}, {0, 15},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Errorf("nearestRank reordered its input: %v", xs)
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("nearestRank of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the nearest-rank 2", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{10, 50, false},
		{19, 50, false},
		{20, 50, true},  // rank 10, ten beyond
		{40, 75, true},  // rank 30, ten beyond
		{41, 75, true},  // p76 has rank 32, nine beyond
		{100, 90, true}, // rank 90, ten beyond
		{1000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%d ok=%v, want p%d ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-(rankIndex(c.n, float64(p))+1) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%d leaves fewer than %d samples beyond it", c.n, p, minBeyond)
		}
		if ok && p < 99 && c.n-(rankIndex(c.n, float64(p+1))+1) >= minBeyond {
			t.Errorf("tailPercentile(%d) = p%d, but p%d also leaves %d beyond", c.n, p, p+1, minBeyond)
		}
	}
}

func TestThroughput(t *testing.T) {
	if got := throughput(3_000_000, 1.5); got != 2 {
		t.Errorf("throughput(3M cycles, 1.5 s) = %v Mcycles/s, want 2", got)
	}
	if got := throughput(1000, 0); got != 0 {
		t.Errorf("throughput over no time = %v, want 0", got)
	}
}

func TestWholePasses(t *testing.T) {
	cases := []struct {
		seconds   int
		perSecond float64
		n, want   int
	}{
		{30, 1.8, 17, 51}, // 54 ops round to 3 passes
		{30, 3.3, 8, 96},  // 99 ops round to 12 passes
		{1, 1.8, 17, 17},  // never less than one pass
	}
	for _, c := range cases {
		if got := wholePasses(c.seconds, c.perSecond, c.n); got != c.want {
			t.Errorf("wholePasses(%d, %v, %d) = %d, want %d", c.seconds, c.perSecond, c.n, got, c.want)
		}
	}
}

func TestSlope(t *testing.T) {
	if got := slope([]float64{1, 2, 3, 4}, []float64{10, 12, 14, 16}); got != 2 {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := slope([]float64{1}, []float64{5}); got != 0 {
		t.Errorf("slope of one point = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestCheckerPinsAndRepeats(t *testing.T) {
	c := newChecker([]string{"a", "b", "c"}, 3)
	for i, d := range []string{"a", "b", "c", "a", "b", "c"} {
		if err := c.check(i, d); err != nil {
			t.Errorf("op %d with its pinned digest: %v", i, err)
		}
	}
	if err := c.check(7, "x"); err == nil {
		t.Error("a digest that differs from its pin passed")
	}

	unpinned := newChecker(nil, 2)
	for i, d := range []string{"p", "q", "p"} {
		if err := unpinned.check(i, d); err != nil {
			t.Errorf("op %d repeating its first pass: %v", i, err)
		}
	}
	if err := unpinned.check(3, "other"); err == nil {
		t.Error("a later pass that differs from the first passed")
	}
}

// A corrupted pin must turn the ops it covers into failed ops, and the
// failed ops must leave the latency and throughput figures.
func TestCorruptPinFailsOps(t *testing.T) {
	good := []string{"d0", "d1"}
	corrupt := []string{"d0", "bad"}
	for _, c := range []struct {
		pins       []string
		wantFailed int
	}{{good, 0}, {corrupt, 2}} {
		chk := newChecker(c.pins, 2)
		var tl tally
		for i := 0; i < 4; i++ {
			tl.record(chk, i, opResult{digest: good[i%2], cycles: 100}, nil, time.Millisecond)
		}
		if tl.attempted != 4 || tl.failed != c.wantFailed {
			t.Errorf("pins %v: %d attempted, %d failed, want 4 and %d", c.pins, tl.attempted, tl.failed, c.wantFailed)
		}
		if passed := 4 - c.wantFailed; len(tl.latMS) != passed || tl.cycles != int64(100*passed) {
			t.Errorf("pins %v: %d latencies and %d cycles kept, want %d and %d", c.pins, len(tl.latMS), tl.cycles, passed, 100*passed)
		}
	}

	var tl tally
	tl.record(newChecker(nil, 0), 0, opResult{}, errors.New("simulation failed"), time.Millisecond)
	if tl.failed != 1 || len(tl.latMS) != 0 {
		t.Errorf("an op error was not counted as a failed op: %+v", tl)
	}
}

// BENCHMARK.json must name exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	got := perLayerMetrics()
	if len(got) != len(spec.PerLayer) {
		t.Fatalf("program reports %d per-layer metrics, BENCHMARK.json lists %d", len(got), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if got[i].name != m.Name || got[i].unit != m.Unit {
			t.Errorf("per-layer metric %d: program %s (%s), BENCHMARK.json %s (%s)", i, got[i].name, got[i].unit, m.Name, m.Unit)
		}
	}
	e2e := endToEndUnits()
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("program reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s: program unit %q, BENCHMARK.json %q", m.Name, e2e[m.Name], m.Unit)
		}
	}
}

func TestServeSpecsNeverRepeatAndTwinsMatch(t *testing.T) {
	const seed = 5
	seen := map[string]int{}
	for i := 0; i < 3*servePass; i++ {
		s, mix, sched := serveStreamSpec(seed, i)
		body, err := json.Marshal(newServeSpec(s, mix, sched, true))
		if err != nil {
			t.Fatal(err)
		}
		if j, ok := seen[string(body)]; ok {
			t.Fatalf("op %d repeats op %d's spec", i, j)
		}
		seen[string(body)] = i

		ts, tmix, tsched := serveStreamSpec(seed, i+serveTwin)
		if ts == s || tsched != sched || len(tmix) != len(mix) {
			t.Fatalf("op %d twin: seed %d sched %s, want another seed than %d and sched %s", i, ts, tsched, s, sched)
		}
		for k := range mix {
			if tmix[k] != mix[k] {
				t.Fatalf("op %d twin mix %v, want %v", i, tmix, mix)
			}
		}
	}
	arms := opArms(true, workloadDef{name: "serve-traced"}, 3)
	if len(arms) != 2 || arms[0] != (opArm{3 + serveTwin, false}) || arms[1] != (opArm{3, true}) {
		t.Errorf("serve-traced arms of op 3 = %v, want the untraced twin then the traced op", arms)
	}
}

func TestHostScale(t *testing.T) {
	c := calibration{samples: []float64{2 * calRefMS, 2 * calRefMS, 9 * calRefMS}}
	if got := hostScale(c, 0); got != 2 {
		t.Errorf("hostScale without steal = %v, want the kernel's median slowdown 2", got)
	}
	if got := hostScale(c, 20); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("hostScale at 20%% steal = %v, want 2 / 0.8 = 2.5", got)
	}
	if got := hostScale(calibration{}, 0); got != 1 {
		t.Errorf("hostScale with no samples = %v, want 1", got)
	}
}
