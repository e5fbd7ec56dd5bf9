package memctrl

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

// Step advances the controller through DRAM cycle now and returns the next
// cycle worth stepping. It ticks unless now is before the bound its last
// Step returned, and returns now+1 after a tick that issued a command,
// NextEventAt(now) after one that did not, and the unchanged bound when it
// elides the tick. An elided cycle is accounted in place, as
// AccountIdleSpan(1) would, so stats reads need no flush. EnqueueRead and
// EnqueueWrite clear the bound, so an arrival is seen on the next Step.
//
// The caller may skip Step calls only over cycles before the returned
// bound, accounting them with AccountIdleSpan. Step and Tick are two clocks
// for one controller: a caller uses one or the other.
func (c *Controller) Step(now int64) int64 {
	if now < c.stepNext {
		c.accounted++
		return c.stepNext
	}
	return c.stepTick(now)
}

// stepTick is Step's ticking half, kept out of line so the elided half
// inlines into the run loop.
func (c *Controller) stepTick(now int64) int64 {
	issued := c.cmdsIssued
	c.Tick(now)
	if c.cmdsIssued != issued {
		c.stepNext = now + 1
	} else {
		c.stepNext = c.NextEventAt(now)
	}
	return c.stepNext
}

// NextEventAt returns a lower bound on the next DRAM cycle > now at which
// ticking the controller could have any observable effect: a burst retiring,
// a command becoming issuable for a buffered request, a refresh falling due,
// or the policy's own next self-driven event. It is valid after a Tick(now)
// that issued no command, until an enqueue; Step calls it there and caches
// the result.
//
// The device term is the idle cache the failed scan armed (idleUntil), the
// bound that scan computed as it visited every bank — there is no second
// pass. When the cache is not armed past now — the scan was bounded at now
// by an eligibility-filtered bank (TDM-strict), or no scan has run since the
// last issue — the term is now+1.
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
	if t := max(c.idleUntil, now+1); t < next {
		next = t
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// AccountIdleSpan applies the per-cycle accounting Tick would have performed
// over a span of `cycles` idle cycles the clock skips without calling Tick
// or Step: the cycles join every thread's deferred BLP span (see accounted).
// Valid only for spans in which no command issues and no burst retires, as
// before a bound Step returned — then banksBusy is constant, so each
// thread's eventual closed-form flush equals the per-cycle sum exactly (the
// differential equivalence tests in internal/sim pin this).
func (c *Controller) AccountIdleSpan(cycles int64) {
	if cycles <= 0 {
		return
	}
	c.accounted += cycles
}
