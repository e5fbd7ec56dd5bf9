//go:build parbsdebug

package memctrl

import "fmt"

// The parbsdebug audit holds every scheduling decision of the bank-indexed
// fast path to the flat O(buffer) reference scan below, which shares no
// selection code with the bank index or its candidate cache. It checks three
// points: every read and write scan (auditScan), every tick the idle cache
// cuts short (auditIdleSkip), and every closed-page auto-precharge choice
// (auditRowWanted). A divergence panics at the first decision it affects,
// naming the cycle, policy and candidates, instead of surfacing cycles later
// as a command-hash diff.
//
// Build with `go test -tags parbsdebug ./...` to run the whole suite under
// the audit; it is far too slow for benchmarks.

// auditScan checks one bestCandidate scan over the controller's own queues.
// First the non-empty-bank mask: every bank's bit must be set exactly when
// its queue is non-empty, which is what lets the scan skip an emptiness
// check per bank. When the scan reused cached entries, it re-runs the scan
// over the mask with every entry force-rebuilt and compares winner, found
// flag and failure bound. Last, it compares winner and found flag with the
// flat reference scan — for every policy, uncached custom ones included.
// The audit's own forced rebuild scans a fresh cache and is not audited
// again.
func auditScan(c *Controller, queues []reqList, mask bitmask, cache []bankCand, useCache bool, now int64, isWrite bool, best Candidate, found bool, bound int64) {
	own := c.readCache
	if isWrite {
		own = c.writeCache
	}
	if &cache[0] != &own[0] {
		return
	}
	for b := range queues {
		if mask.has(b) != (queues[b].n > 0) {
			panic(fmt.Sprintf("memctrl: non-empty-bank mask out of sync at cycle %d (write=%v): bank %d bit=%v queue length %d",
				now, isWrite, b, mask.has(b), queues[b].n))
		}
	}
	if useCache {
		fresh := make([]bankCand, len(queues))
		rBest, rFound, rBound := c.bestCandidate(queues, mask, fresh, false, now, isWrite)
		if rFound != found || rBound != bound || (found && !sameCandidate(rBest, best)) {
			panic(fmt.Sprintf("memctrl: stale candidate cache at cycle %d (write=%v, policy %s, epoch %d):\n"+
				"  cached:  found=%v bound=%d %s\n  rescan:  found=%v bound=%d %s",
				now, isWrite, c.policy.Name(), c.auditEpoch(), found, bound, describeCandidate(best, found),
				rFound, rBound, describeCandidate(rBest, rFound)))
		}
	}
	var fBest Candidate
	var fFound bool
	if isWrite {
		fBest, fFound = c.issueWriteScan(now)
	} else {
		fBest, fFound = c.bestReadCandidateScan(now)
	}
	if fFound != found || (found && !sameCandidate(fBest, best)) {
		panic(fmt.Sprintf("memctrl: scan diverges from the flat reference at cycle %d (write=%v, policy %s, epoch %d):\n"+
			"  indexed: found=%v %s\n  flat:    found=%v %s",
			now, isWrite, c.policy.Name(), c.auditEpoch(), found, describeCandidate(best, found),
			fFound, describeCandidate(fBest, fFound)))
	}
}

// auditIdleSkip checks a tick the idle cache cut short: the flat reference
// scans must find no legal read or write at this cycle, and the write-drain
// hysteresis the skipped code would have run must not flip.
func auditIdleSkip(c *Controller, now int64) {
	if rBest, ok := c.bestReadCandidateScan(now); ok {
		panic(fmt.Sprintf("memctrl: idle cache skipped cycle %d (armed until %d, policy %s) with a legal read: %s",
			now, c.idleUntil, c.policy.Name(), describeCandidate(rBest, true)))
	}
	if wBest, ok := c.issueWriteScan(now); ok {
		panic(fmt.Sprintf("memctrl: idle cache skipped cycle %d (armed until %d, policy %s) with a legal write: %s",
			now, c.idleUntil, c.policy.Name(), describeCandidate(wBest, true)))
	}
	draining := c.draining
	if c.writes.n >= c.cfg.WriteDrainHigh {
		draining = true
	} else if c.writes.n <= c.cfg.WriteDrainLow {
		draining = false
	}
	if draining != c.draining {
		panic(fmt.Sprintf("memctrl: idle cache skipped cycle %d (armed until %d) across a write-drain flip (draining=%v, %d writes buffered)",
			now, c.idleUntil, c.draining, c.writes.n))
	}
}

// auditRowWanted checks a closed-page CAS's auto-precharge choice against
// the flat walk over both buffers.
func auditRowWanted(c *Controller, req *Request, wanted bool) {
	if flat := c.rowWantedScan(req); flat != wanted {
		panic(fmt.Sprintf("memctrl: rowWanted diverges from the flat reference for req %d (bank %d row %d): indexed=%v flat=%v",
			req.ID, req.Loc.Bank, req.Loc.Row, wanted, flat))
	}
}

func sameCandidate(a, b Candidate) bool {
	return a.Req == b.Req && a.Cmd == b.Cmd && a.RowState == b.RowState
}

func describeCandidate(cand Candidate, found bool) string {
	if !found {
		return ""
	}
	r := cand.Req
	return fmt.Sprintf("req %d (thread %d bank %d row %d) cmd %v state %v",
		r.ID, r.Thread, r.Loc.Bank, r.Loc.Row, cand.Cmd, cand.RowState)
}

func (c *Controller) auditEpoch() uint64 {
	if c.epoched == nil {
		return 0
	}
	return c.epoched.OrderEpoch()
}

// bestReadCandidateScan is the pre-index O(buffer) reference scan: every
// buffered read, in arrival order, with its device-legal next command.
func (c *Controller) bestReadCandidateScan(now int64) (Candidate, bool) {
	var best Candidate
	found := false
	elig, hasElig := c.policy.(EligibilityPolicy)
	for r := c.reads.head; r != nil; r = r.NextBuffered() {
		if hasElig && !elig.Eligible(r) {
			continue
		}
		cand, ok := c.candidateFor(r, now)
		if !ok {
			continue
		}
		if !found || c.policy.Better(cand, best) {
			best = cand
			found = true
		}
	}
	return best, found
}

func (c *Controller) candidateFor(r *Request, now int64) (Candidate, bool) {
	state := c.dev.RowStateOf(r.Loc.Bank, r.Loc.Row)
	cmd := c.dev.NextCommand(r.Loc.Bank, r.Loc.Row, r.IsWrite)
	if !c.dev.CanIssue(now, cmd, r.Loc.Bank, r.Loc.Row) {
		return Candidate{}, false
	}
	return Candidate{Req: r, Cmd: cmd, RowState: state}, true
}

// issueWriteScan is the pre-index reference scan over the write buffer.
func (c *Controller) issueWriteScan(now int64) (Candidate, bool) {
	var best Candidate
	found := false
	for r := c.writes.head; r != nil; r = r.NextBuffered() {
		cand, ok := c.candidateFor(r, now)
		if !ok {
			continue
		}
		if !found || writeBetter(cand, best) {
			best = cand
			found = true
		}
	}
	return best, found
}

// rowWantedScan is the pre-index O(buffer) reference implementation.
func (c *Controller) rowWantedScan(req *Request) bool {
	for r := c.reads.head; r != nil; r = r.NextBuffered() {
		if r != req && r.Loc.Bank == req.Loc.Bank && r.Loc.Row == req.Loc.Row {
			return true
		}
	}
	for r := c.writes.head; r != nil; r = r.NextBuffered() {
		if r != req && r.Loc.Bank == req.Loc.Bank && r.Loc.Row == req.Loc.Row {
			return true
		}
	}
	return false
}
