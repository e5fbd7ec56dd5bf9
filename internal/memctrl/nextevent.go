package memctrl

import (
	"math"
	"math/bits"

	"repro/internal/dram"
)

// NextEventer is an optional extension of Policy for the next-event
// simulation clock. Implementing it is a declaration that the policy's
// OnCycle hook is inert between events: skipping OnCycle calls over a span
// of cycles in which no request is enqueued, issued or completed, and no
// cycle at or past NextPolicyEventAt is crossed, leaves the policy in
// exactly the state per-cycle ticking would have produced.
//
// NextPolicyEventAt(now) returns a lower bound on the next cycle > now at
// which the policy's own state changes without an external trigger (e.g. a
// PAR-BS static re-marking deadline). It must never overshoot such a cycle;
// returning a smaller value (even now+1) is always safe and merely forces
// the clock to advance cycle by cycle. math.MaxInt64 means "no self-driven
// events".
//
// A policy whose state moves every cycle must settle that motion in closed
// form before it can implement this interface — STFM accrues its stall
// clocks over the elided cycles at its next OnCycle or OnEnqueue. A policy
// that does not implement it (a custom scheduler) gets now+1 from
// NextEventAt, and its runs degenerate to the legacy ticked loop, which is
// always correct.
type NextEventer interface {
	NextPolicyEventAt(now int64) int64
}

// NextEventAt returns a lower bound on the next DRAM cycle > now at which
// ticking the controller could have any observable effect: a burst retiring,
// a command becoming issuable for a buffered request, a refresh falling due,
// or the policy's own next self-driven event. Call it after Tick(now) on a
// cycle that issued no command; the simulation clock may then jump straight
// to the returned cycle, provided nothing outside the controller (a core
// enqueue) happens earlier.
//
// The bound never overshoots a real event — see DESIGN.md §13 for the
// contract — but may undershoot (eligibility-gated policies, refresh
// sequencing), in which case the caller re-evaluates and the clamp to now+1
// below guarantees forward progress.
func (c *Controller) NextEventAt(now int64) int64 {
	ne, ok := c.policy.(NextEventer)
	if !ok {
		return now + 1 // policy needs per-cycle OnCycle calls
	}
	if trefi := c.trefi; trefi > 0 {
		if now >= c.nextRefresh {
			return now + 1 // mid refresh sequence: tick through it
		}
		// The refresh deadline itself is an event: request scheduling is
		// preempted from that cycle on.
		if c.nextRefresh <= now+1 {
			return now + 1
		}
	}
	next := ne.NextPolicyEventAt(now)
	if trefi := c.trefi; trefi > 0 && c.nextRefresh < next {
		next = c.nextRefresh
	}
	if c.inflight.len() > 0 {
		if e := c.inflight.front().end; e < next {
			next = e
		}
	}
	// Reuse the idle cache when the scan that just failed armed it; it is the
	// same nextIssueAt bound, computed once instead of on every skip attempt.
	t := c.idleUntil
	if t <= now {
		t = c.nextIssueAt()
	}
	if t < next {
		next = t
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// nextIssueAt returns a lower bound on the earliest cycle at which any
// buffered request's next command becomes device-legal, by walking the
// request queues of the banks in the non-empty-bank masks. It is
// conservative in one direction only: when the open row's demand is
// all-read or all-write the bound still considers both CAS classes, which
// can only make it earlier. It runs only on the rare NextEventAt calls where
// the scan-byproduct idle cache is not armed, so the queue walk is not hot.
func (c *Controller) nextIssueAt() int64 {
	next := int64(math.MaxInt64)
	for w := range c.readBanks {
		for word := c.readBanks[w] | c.writeBanks[w]; word != 0; word &= word - 1 {
			next = min(next, c.bankIssueAt(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return next
}

// bankIssueAt is nextIssueAt's bound for one bank with buffered requests.
func (c *Controller) bankIssueAt(b int) int64 {
	openRow := c.dev.OpenRow(b)
	if openRow < 0 {
		// Closed bank: every buffered request proceeds with an activate,
		// whose legality is row-independent.
		return c.dev.ReadyAt(dram.CmdActivate, b)
	}
	rq, wq := &c.bankReads[b], &c.bankWrites[b]
	anyHit, anyMiss := false, false
	for r := rq.head; r != nil && !(anyHit && anyMiss); r = rq.next(r) {
		if r.Loc.Row == openRow {
			anyHit = true
		} else {
			anyMiss = true
		}
	}
	for r := wq.head; r != nil && !(anyHit && anyMiss); r = wq.next(r) {
		if r.Loc.Row == openRow {
			anyHit = true
		} else {
			anyMiss = true
		}
	}
	next := int64(math.MaxInt64)
	if anyHit {
		if rq.n > 0 {
			next = min(next, c.dev.ReadyAt(dram.CmdRead, b))
		}
		if wq.n > 0 {
			next = min(next, c.dev.ReadyAt(dram.CmdWrite, b))
		}
	}
	if anyMiss {
		// Some request targets a different row and needs a precharge.
		next = min(next, c.dev.ReadyAt(dram.CmdPrecharge, b))
	}
	return next
}

// AccountIdleSpan applies the per-cycle accounting Tick would have performed
// over a span of `cycles` idle cycles the clock is about to skip: the cycles
// join every thread's deferred BLP span (see accounted). Valid only for spans
// in which no command issues and no burst retires — then banksBusy is
// constant, so each thread's eventual closed-form flush equals the per-cycle
// sum exactly (the differential equivalence tests in internal/sim pin this).
func (c *Controller) AccountIdleSpan(cycles int64) {
	if cycles <= 0 {
		return
	}
	c.accounted += cycles
}
