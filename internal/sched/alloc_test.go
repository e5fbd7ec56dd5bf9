//go:build !parbsdebug

package sched

// The scheduling fast path must be allocation-free in steady state: the
// per-cycle decision (candidate cache, intrusive buffers, deferred BLP,
// PAR-BS batch bookkeeping) runs millions of times per simulated second,
// and a single allocation per decision would put the garbage collector on
// the simulator's critical path. The guard below pins zero allocations per
// evaluated cycle; BenchmarkPolicyDecision tracks the decision cost itself
// (run it with -benchmem).
//
// The file is excluded from parbsdebug builds: that tag's per-scan cache
// audit rebuilds every bank into fresh scratch by design, so the
// zero-allocation invariant holds only for release builds.

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// fillDecisionState builds a PAR-BS controller in scheduling steady state:
// the read buffer filled with a multi-thread, multi-bank, multi-row spread
// (plus buffered writebacks), ticked far enough that batch formation,
// thread ranking and the candidate cache are all live. It returns the
// controller and the next cycle to tick. No requests are enqueued after
// this point, so a measured tick window exercises pure decision work.
func fillDecisionState(tb testing.TB, threads int) (*memctrl.Controller, int64) {
	tb.Helper()
	pol, err := ByName("PAR-BS")
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
	if err != nil {
		tb.Fatal(err)
	}
	c, err := memctrl.NewController(dev, pol, memctrl.DefaultConfig(threads))
	if err != nil {
		tb.Fatal(err)
	}
	g := dev.Geometry()
	n := 0
	for r := int64(0); n < 4*g.Banks*threads; r++ {
		for t := 0; t < threads; t++ {
			for b := 0; b < g.Banks; b++ {
				addr := g.Unmap(dram.Location{Bank: b, Row: (int64(t)*97 + r*13) % g.Rows, Col: r % g.ColumnsPerRow()})
				if _, ok := c.EnqueueRead(t, addr, 0); !ok {
					tb.Fatalf("read buffer full after %d enqueues", n)
				}
				n++
			}
		}
	}
	for i := 0; i < 24; i++ {
		addr := g.Unmap(dram.Location{Bank: i % g.Banks, Row: int64(i*31) % g.Rows, Col: 0})
		if !c.EnqueueWrite(i%threads, addr, 0) {
			tb.Fatalf("write buffer full after %d enqueues", i)
		}
	}
	// Warm up past the first batch formations so marking, ranking and the
	// per-bank candidate cache are all populated.
	now := int64(1)
	for ; now <= 100; now++ {
		c.Tick(now)
	}
	return c, now
}

// TestPolicyDecisionAllocFree pins the steady-state scheduling path to zero
// allocations per evaluated cycle. The window is sized so the pre-filled
// buffer cannot drain: a run that went idle would pass vacuously, so the
// guard asserts reads are still pending afterwards.
func TestPolicyDecisionAllocFree(t *testing.T) {
	c, now := fillDecisionState(t, 4)
	allocs := testing.AllocsPerRun(200, func() {
		c.Tick(now)
		now++
	})
	if allocs != 0 {
		t.Errorf("scheduling path allocates %.2f times per evaluated cycle, want 0", allocs)
	}
	if c.PendingReads() == 0 {
		t.Fatal("read buffer drained during the measured window; the guard is vacuous")
	}
}

// BenchmarkPolicyDecision measures the per-evaluated-cycle cost of the full
// scheduling decision — retire, policy hooks, candidate selection, command
// issue — against a PAR-BS steady state. The buffer is refilled from the
// benchmark loop whenever it runs low so every iteration does real decision
// work; refills draw recycled requests, so -benchmem should report zero
// allocations per decision.
func BenchmarkPolicyDecision(b *testing.B) {
	c, now := fillDecisionState(b, 4)
	g := c.Device().Geometry()
	row := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.PendingReads() < g.Banks {
			row++
			for t := 0; t < 4; t++ {
				for bk := 0; bk < g.Banks; bk++ {
					addr := g.Unmap(dram.Location{Bank: bk, Row: (int64(t)*89 + row*17) % g.Rows, Col: row % g.ColumnsPerRow()})
					if _, ok := c.EnqueueRead(t, addr, now); !ok {
						break
					}
				}
			}
		}
		c.Tick(now)
		now++
	}
}
