package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// TestSTFMClosedFormMatchesPerCycle drives two controllers with the same
// random read and write stream: one ticked every cycle, one stepped every
// cycle with Controller.Step, which elides the ticks NextEventAt proves quiet
// until the next arrival — the simulator's clock. At every real tick of the
// second (an arrival, or a cycle at or past the bound its last Step
// returned), its STFM state (shared and interference clocks, fairness mode,
// slowest thread) must equal the per-cycle one bit for bit, and the two
// command streams must be identical. A short
// IntervalLength puts many ageing boundaries inside the run, and sparse
// arrivals with several threads joining the reader set after an elided span
// exercise the OnEnqueue settle.
func TestSTFMClosedFormMatchesPerCycle(t *testing.T) {
	const threads, end = 4, 60_000
	newSTFM := func() (*STFM, *memctrl.Controller, *[]memctrl.CommandEvent) {
		p := NewSTFM()
		p.IntervalLength = 1500
		dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
		if err != nil {
			t.Fatal(err)
		}
		c, err := memctrl.NewController(dev, p, memctrl.DefaultConfig(threads))
		if err != nil {
			t.Fatal(err)
		}
		var log []memctrl.CommandEvent
		c.SetCommandLog(func(ev memctrl.CommandEvent) { log = append(log, ev) })
		return p, c, &log
	}
	ref, refCtrl, refLog := newSTFM()
	got, ctrl, log := newSTFM()
	compare := func(now int64) {
		t.Helper()
		if !slices.Equal(got.shared, ref.shared) || !slices.Equal(got.interference, ref.interference) ||
			got.unfair != ref.unfair || got.slowest != ref.slowest {
			t.Fatalf("cycle %d: closed form shared %v interference %v unfair %v slowest %d\n"+
				"per-cycle shared %v interference %v unfair %v slowest %d",
				now, got.shared, got.interference, got.unfair, got.slowest,
				ref.shared, ref.interference, ref.unfair, ref.slowest)
		}
	}

	rng := rand.New(rand.NewSource(5))
	arrival, next := int64(0), int64(0)
	var elided, ticks, unfairTicks, ageings int64
	for now := int64(0); now < end; now++ {
		enqueued := false
		for now == arrival {
			// Thread 0 is heavy and row-local, so the others build up
			// interference and fairness mode engages.
			th := rng.Intn(threads)
			row := rng.Int63n(1 << 10)
			if th == 0 {
				row = 7
			}
			addr := ctrl.Device().Geometry().Unmap(dram.Location{Bank: rng.Intn(8), Row: row, Col: rng.Int63n(16)})
			if rng.Intn(5) == 0 {
				ctrl.EnqueueWrite(th, addr, now)
				refCtrl.EnqueueWrite(th, addr, now)
			} else if ctrl.PendingReads() < 40 {
				ctrl.EnqueueRead(th, addr, now)
				refCtrl.EnqueueRead(th, addr, now)
			}
			enqueued = true
			// Bursts of same-cycle arrivals, short gaps and long idle gaps.
			switch r := rng.Intn(10); {
			case r < 2:
				arrival = now
			case r < 8:
				arrival = now + 1 + rng.Int63n(20)
			default:
				arrival = now + 1 + rng.Int63n(400)
			}
		}
		refCtrl.Tick(now)
		before := got.nextAgeing
		bound := ctrl.Step(now)
		if !enqueued && now < next {
			if bound != next {
				t.Fatalf("cycle %d: elided Step returned %d, want its cached bound %d", now, bound, next)
			}
			elided++
			continue
		}
		next = bound
		ticks++
		compare(now)
		if got.unfair {
			unfairTicks++
		}
		if got.nextAgeing != before && slices.ContainsFunc(got.shared, func(v float64) bool { return v != math.Trunc(v) }) {
			ageings++
		}
	}
	if !slices.Equal(*log, *refLog) {
		t.Fatalf("command streams differ: %d vs %d commands", len(*log), len(*refLog))
	}
	t.Logf("%d real ticks, %d elided, %d in fairness mode, %d ageings with fractional clocks", ticks, elided, unfairTicks, ageings)
	switch {
	case elided < end/4:
		t.Errorf("only %d of %d cycles elided; the closed form went unexercised", elided, end)
	case unfairTicks == 0 || unfairTicks == ticks:
		t.Errorf("fairness mode was on for %d of %d ticks; the pair never changed", unfairTicks, ticks)
	case ageings == 0:
		t.Error("no ageing left a fractional clock; the exactness guard went unexercised")
	}
}

// TestAddCyclesMatchesSteps holds addCycles to k single increments, at
// values where a one-shot sum rounds differently from the steps.
func TestAddCyclesMatchesSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rounded := 0
	for i := 0; i < 20_000; i++ {
		x := float64(rng.Int63n(1 << 12))
		for h := rng.Intn(60); h > 0; h-- {
			x /= 2
			x += float64(rng.Intn(3))
		}
		if rng.Intn(4) == 0 {
			x = float64(1<<53) - float64(rng.Intn(8))
		}
		k := 1 + rng.Int63n(1<<12)
		want := x
		for j := int64(0); j < k; j++ {
			want++
		}
		if got := addCycles(x, k); got != want {
			t.Fatalf("addCycles(%v, %d) = %v, want %v", x, k, got, want)
		}
		if x+float64(k) != want {
			rounded++
		}
	}
	if rounded == 0 {
		t.Error("no case where the one-shot sum differs from the steps; the test is vacuous")
	}
}
