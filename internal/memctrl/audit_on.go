//go:build parbsdebug

package memctrl

import "fmt"

// auditCandidateCache (parbsdebug build) checks the scan's inputs and result.
// First the non-empty-bank mask: every bank's bit must be set exactly when
// its queue is non-empty. Then it re-runs the scan over every bank of the
// geometry — an all-ones mask, so a bit wrongly cleared cannot hide a bank
// from the reference — with all entries force-rebuilt, and panics on any
// divergence: winner, found flag, or failure bound. A differential fuzz
// failure then localizes to the first scan whose mask or cache went stale
// (naming the bank, epoch, and winners) instead of surfacing cycles later as
// a command-hash diff.
//
// Build with `go test -tags parbsdebug ./...` to run the whole suite under
// the audit; it is far too slow for benchmarks.
func auditCandidateCache(c *Controller, queues []reqList, mask bitmask, now int64, isWrite bool, best Candidate, found bool, bound int64) {
	all := newBitmask(len(queues))
	for b := range queues {
		if mask.has(b) != (queues[b].n > 0) {
			panic(fmt.Sprintf("memctrl: non-empty-bank mask out of sync at cycle %d (write=%v): bank %d bit=%v queue length %d",
				now, isWrite, b, mask.has(b), queues[b].n))
		}
		all.set(b)
	}
	scratch := make([]bankCand, len(queues))
	rBest, rFound, rBound := c.bestCandidate(queues, all, scratch, false, now, isWrite)
	if rFound != found || rBound != bound ||
		(found && (rBest.Req != best.Req || rBest.Cmd != best.Cmd || rBest.RowState != best.RowState)) {
		var cb, rb string
		if found {
			cb = fmt.Sprintf("req %d (thread %d bank %d row %d) cmd %v state %v",
				best.Req.ID, best.Req.Thread, best.Req.Loc.Bank, best.Req.Loc.Row, best.Cmd, best.RowState)
		}
		if rFound {
			rb = fmt.Sprintf("req %d (thread %d bank %d row %d) cmd %v state %v",
				rBest.Req.ID, rBest.Req.Thread, rBest.Req.Loc.Bank, rBest.Req.Loc.Row, rBest.Cmd, rBest.RowState)
		}
		var epoch uint64
		if c.epoched != nil {
			epoch = c.epoched.OrderEpoch()
		}
		panic(fmt.Sprintf("memctrl: stale candidate cache at cycle %d (write=%v, policy %s, epoch %d):\n"+
			"  cached:  found=%v bound=%d %s\n  rescan:  found=%v bound=%d %s",
			now, isWrite, c.policy.Name(), epoch, found, bound, cb, rFound, rBound, rb))
	}
}
