package memctrl

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dram"
)

// eventedPolicy is testPolicy plus the NextEventer declaration: its OnCycle
// only counts calls, so it is inert in the interface's sense.
type eventedPolicy struct{ testPolicy }

func (p *eventedPolicy) NextPolicyEventAt(now int64) int64 { return int64(1) << 62 }

// TestNextEventAtNeverOvershoots runs a ticked controller under a randomized
// enqueue stream and checks the core contract of the next-event clock: a
// prediction made on an idle cycle must not be overshot by any observable
// event (command issue or burst retire) occurring before it, unless an
// external enqueue intervened (which invalidates the prediction, exactly as
// a core enqueue ends a skip span in the simulator). It also checks that
// predictions land exactly on events often enough to be useful.
func TestNextEventAtNeverOvershoots(t *testing.T) {
	dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	pol := &eventedPolicy{}
	c, err := NewController(dev, pol, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	completed := func() int64 {
		var s int64
		for th := 0; th < 2; th++ {
			st := c.ThreadStats(th)
			s += st.ReadsCompleted + st.WritesCompleted
		}
		return s
	}

	rng := rand.New(rand.NewSource(9))
	pred := int64(-1)
	lastIssued, lastCompleted := int64(0), int64(0)
	exactHits, skippable := 0, 0
	for now := int64(0); now < 20_000; now++ {
		enqueued := false
		if rng.Intn(6) == 0 && c.PendingReads() < 64 {
			if _, ok := c.EnqueueRead(rng.Intn(2), rng.Int63n(1<<14)*64, now); ok {
				enqueued = true
			}
		}
		if rng.Intn(20) == 0 && c.PendingWrites() < 32 {
			if c.EnqueueWrite(rng.Intn(2), rng.Int63n(1<<14)*64, now) {
				enqueued = true
			}
		}
		if enqueued {
			pred = -1 // external event: the idle-span prediction is void
		}
		c.Tick(now)
		issued, comp := c.CommandsIssued(), completed()
		event := issued != lastIssued || comp != lastCompleted
		lastIssued, lastCompleted = issued, comp
		if event {
			if pred >= 0 {
				if now < pred {
					t.Fatalf("event at cycle %d inside a predicted idle span (NextEventAt said %d)", now, pred)
				}
				if now == pred {
					exactHits++
				}
			}
			pred = -1
			continue
		}
		p := c.NextEventAt(now)
		if p <= now {
			t.Fatalf("NextEventAt(%d) = %d, not in the future", now, p)
		}
		if p > now+1 {
			skippable++
		}
		if pred < 0 || p < pred {
			pred = p
		}
	}
	if lastIssued == 0 {
		t.Fatal("no commands issued; test is vacuous")
	}
	if skippable == 0 {
		t.Error("NextEventAt never predicted past now+1; bound is uselessly conservative")
	}
	if exactHits == 0 {
		t.Error("no event ever landed exactly on a prediction; bound looks vacuously loose")
	}
}

// TestAccountIdleSpanMatchesPerCycle pins the closed-form BLP accounting to
// the per-cycle path it replaces over a span with constant bank occupancy.
func TestAccountIdleSpanMatchesPerCycle(t *testing.T) {
	build := func() *Controller {
		dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(dev, &eventedPolicy{}, DefaultConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		copy(c.banksBusy, []int{2, 0, 5})
		return c
	}
	perCycle, closed := build(), build()
	const span = 37
	for i := 0; i < span; i++ {
		// One deferred cycle at a time, settled immediately for every
		// thread: the per-cycle accounting the ticked loop used to perform
		// inline.
		perCycle.accounted++
		for th := 0; th < 3; th++ {
			perCycle.flushBLP(th)
		}
	}
	closed.AccountIdleSpan(span)
	for th := 0; th < 3; th++ {
		a, b := perCycle.ThreadStats(th), closed.ThreadStats(th)
		if a != b {
			t.Errorf("thread %d: per-cycle stats %+v != closed-form %+v", th, a, b)
		}
	}
}

// blpOraclePolicy accrues the paper's BLP per cycle, the way the controller
// did before accrual was deferred: OnCycle runs inside Tick after retires
// and before the cycle's command issues, which is exactly the point whose
// busy-bank counts the per-cycle accrual sampled.
type blpOraclePolicy struct {
	eventedPolicy
	sum, cycles []int64
}

func (p *blpOraclePolicy) OnCycle(now int64) {
	p.accrue(1)
}

// accrue credits `cycles` cycles at the current busy-bank counts.
func (p *blpOraclePolicy) accrue(cycles int64) {
	for th, n := range p.ctrl.banksBusy {
		if n > 0 {
			p.sum[th] += int64(n) * cycles
			p.cycles[th] += cycles
		}
	}
}

// TestPerThreadBLPMatchesPerCycle runs a controller under a random request
// stream on the simulator's clock discipline — tick, then skip idle spans
// that NextEventAt proves quiet, accounting them with AccountIdleSpan — and
// holds every thread's settled BLP accumulators to a per-cycle oracle. Stats
// are read for random threads at random cycles (settling those threads and
// not the others) and reset once mid-run as warmup does, so the per-thread
// marks must stay right across partial settles and ResetStats.
func TestPerThreadBLPMatchesPerCycle(t *testing.T) {
	const threads = 4
	dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	pol := &blpOraclePolicy{sum: make([]int64, threads), cycles: make([]int64, threads)}
	c, err := NewController(dev, pol, DefaultConfig(threads))
	if err != nil {
		t.Fatal(err)
	}
	compare := func(now int64, th int) {
		t.Helper()
		sum, cycles := c.ThreadStats(th).BLPAccum()
		if sum != pol.sum[th] || cycles != pol.cycles[th] {
			t.Fatalf("cycle %d thread %d: settled BLP (sum %d, cycles %d) != per-cycle (sum %d, cycles %d)",
				now, th, sum, cycles, pol.sum[th], pol.cycles[th])
		}
	}
	rng := rand.New(rand.NewSource(3))
	const warmup, end = 7_000, 40_000
	arrival, skipped := int64(0), int64(0)
	for now := int64(0); now < end; {
		if now == warmup {
			// The reset must drop cycles some thread has not settled yet,
			// or a mark left behind by ResetStats would go unnoticed.
			unsettled := false
			for th := 0; th < threads; th++ {
				unsettled = unsettled || (c.banksBusy[th] > 0 && c.blpMark[th] < c.accounted)
			}
			if !unsettled {
				t.Fatal("no thread has unsettled busy cycles at the reset; test is vacuous")
			}
			c.ResetStats()
			clear(pol.sum)
			clear(pol.cycles)
		}
		if now == arrival {
			th, addr := rng.Intn(threads), rng.Int63n(1<<14)*64
			if rng.Intn(4) == 0 {
				c.EnqueueWrite(th, addr, now)
			} else if c.PendingReads() < 48 {
				c.EnqueueRead(th, addr, now)
			}
			arrival = now + 1 + rng.Int63n(12)
		}
		issued := c.CommandsIssued()
		c.Tick(now)
		if rng.Intn(50) == 0 {
			compare(now, rng.Intn(threads))
		}
		next := now + 1
		if c.CommandsIssued() == issued && rng.Intn(2) == 0 {
			// Skip to the controller's next event, as the run loop does,
			// capped at the next arrival and at the warmup reset.
			next = min(c.NextEventAt(now), arrival, end)
			if now < warmup {
				next = min(next, warmup)
			}
			if span := next - now - 1; span > 0 {
				c.AccountIdleSpan(span)
				pol.accrue(span)
				skipped += span
			}
		}
		now = next
	}
	for th := 0; th < threads; th++ {
		compare(end, th)
		if pol.cycles[th] == 0 {
			t.Errorf("thread %d never had a busy bank after warmup; test is vacuous", th)
		}
	}
	if skipped == 0 {
		t.Error("no idle span was skipped; the closed-form path went unexercised")
	}
}

// rotatingPolicy is FR-FCFS under a thread priority that rotates every
// period cycles: a self-driven event the Step bound must not step over.
type rotatingPolicy struct {
	testPolicy
	period  int64
	threads int
	cur     int
}

func (p *rotatingPolicy) OnCycle(now int64) { p.cur = int(now/p.period) % p.threads }
func (p *rotatingPolicy) NextPolicyEventAt(now int64) int64 {
	return (now/p.period + 1) * p.period
}
func (p *rotatingPolicy) Better(a, b Candidate) bool {
	if pa, pb := a.Req.Thread == p.cur, b.Req.Thread == p.cur; pa != pb {
		return pa
	}
	return p.testPolicy.Better(a, b)
}

// TestStepMatchesTick drives one controller with Step every cycle and a twin
// with Tick every cycle, on the same random read and write stream, and
// requires identical command logs, enqueue outcomes and ThreadStats (read
// at random cycles, across a mid-run ResetStats, and at the end). Sparse
// arrivals after long idle gaps land inside the bound an idle Step
// returned, so an enqueue that failed to clear it would leave the new
// request unserved; the arms add a policy with self-driven events, and the
// closed-page policy with refresh.
func TestStepMatchesTick(t *testing.T) {
	const threads, warmup, end = 4, 9_000, 50_000
	arms := []struct {
		name    string
		policy  func() Policy
		closed  bool
		refresh int64
	}{
		{"frfcfs", func() Policy { return &eventedPolicy{} }, false, 0},
		{"rotating", func() Policy { return &rotatingPolicy{period: 700, threads: threads} }, false, 0},
		{"closed-page-refresh", func() Policy { return &eventedPolicy{} }, true, 3120},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			build := func() (*Controller, *[]CommandEvent) {
				tm := dram.DDR2_800()
				tm.TREFI = arm.refresh
				dev, err := dram.NewDevice(tm, dram.DefaultGeometry())
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(threads)
				cfg.ClosedPage = arm.closed
				c, err := NewController(dev, arm.policy(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var log []CommandEvent
				c.SetCommandLog(func(ev CommandEvent) { log = append(log, ev) })
				return c, &log
			}
			stepped, log := build()
			ticked, refLog := build()
			compare := func(now int64, th int) {
				t.Helper()
				if a, b := stepped.ThreadStats(th), ticked.ThreadStats(th); a != b {
					t.Fatalf("cycle %d thread %d: stepped stats %+v != ticked %+v", now, th, a, b)
				}
			}

			rng := rand.New(rand.NewSource(11))
			g := stepped.Device().Geometry()
			arrival, bound := int64(0), int64(0)
			var elided, lateArrivals int64
			for now := int64(0); now < end; now++ {
				if now == warmup {
					stepped.ResetStats()
					ticked.ResetStats()
				}
				enqueued := false
				for now == arrival {
					if now < bound {
						lateArrivals++
					}
					enqueued = true
					th := rng.Intn(threads)
					addr := g.Unmap(dram.Location{Bank: rng.Intn(g.Banks), Row: rng.Int63n(64), Col: rng.Int63n(16)})
					if rng.Intn(4) == 0 {
						if a, b := stepped.EnqueueWrite(th, addr, now), ticked.EnqueueWrite(th, addr, now); a != b {
							t.Fatalf("cycle %d: write accepted %v by the stepped controller, %v by the ticked one", now, a, b)
						}
					} else {
						_, a := stepped.EnqueueRead(th, addr, now)
						_, b := ticked.EnqueueRead(th, addr, now)
						if a != b {
							t.Fatalf("cycle %d: read accepted %v by the stepped controller, %v by the ticked one", now, a, b)
						}
					}
					// Same-cycle bursts, short gaps and long idle gaps.
					switch r := rng.Intn(10); {
					case r < 3:
						arrival = now
					case r < 9:
						arrival = now + 1 + rng.Int63n(8)
					default:
						arrival = now + 1 + rng.Int63n(600)
					}
				}
				if !enqueued && now < bound {
					elided++
				}
				ticked.Tick(now)
				next := stepped.Step(now)
				if next <= now {
					t.Fatalf("Step(%d) = %d, not in the future", now, next)
				}
				bound = next
				if rng.Intn(40) == 0 {
					compare(now, rng.Intn(threads))
				}
			}
			if !slices.Equal(*log, *refLog) {
				t.Fatalf("command logs differ: %d stepped vs %d ticked commands", len(*log), len(*refLog))
			}
			for th := 0; th < threads; th++ {
				compare(end, th)
			}
			t.Logf("%d commands, %d of %d steps elided, %d arrivals inside a Step bound",
				len(*log), elided, end, lateArrivals)
			switch {
			case len(*log) == 0:
				t.Fatal("no commands issued; test is vacuous")
			case elided < end/4:
				t.Errorf("only %d of %d steps elided; the elision went unexercised", elided, end)
			case lateArrivals == 0:
				t.Error("no arrival landed inside a Step bound; invalidation went unexercised")
			}
		})
	}
}
