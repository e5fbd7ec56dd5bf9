package memctrl

import (
	"math"
	"math/bits"

	"repro/internal/dram"
)

// The incrementally-maintained per-bank best-candidate cache.
//
// The bank-indexed scan (bestCandidate) costs one Better call per buffered
// request on every evaluated cycle even though, between events, nothing that
// orders a bank's queue changes: queue membership changes only on
// enqueue/removal, the open row only when a command issues to the bank, and
// the policy's preference among a bank's same-class candidates only at the
// points the EpochedPolicy contract names (batch formation, fairness-mode
// flips, slot handoffs — see request.go). So each bank memoizes its
// per-class winners and the scan degrades to one staleness check plus O(1)
// class-winner comparisons per bank, rebuilding a bank's entry only when one
// of those three inputs actually moved:
//
//   - queue membership — enqueues fold the new request in incrementally
//     (cacheInsert) and removals at CAS issue invalidate only when a cached
//     winner departs (cacheRemove);
//   - device row state — the entry stores the open row it was computed
//     against and is rebuilt when the bank's current open row differs (an
//     activate or precharge in between, including refresh sequencing);
//   - policy order — the entry stores the policy's OrderEpoch and is rebuilt
//     when the current epoch differs.
//
// Only class *winners* are cached, never their legality or the final pick:
// command-class legality (tCAS/tPre/tAct) is re-checked against the device
// every scan, and the surviving winners are re-compared across banks and
// classes with fresh Better calls. That split is what keeps time-dependent
// ordering terms exact — they are uniform within one bank and class (the
// EpochedPolicy contract), so they can only influence the fresh cross-bank
// comparisons, never the cached within-class ones.
//
// The cache changes no observable behavior: winners equal the full rescan's
// (Better is a strict total order), and the failure bounds feeding the idle
// cache are computed from the same per-class facts the rescan derives.
// Under the parbsdebug build tag every scan is asserted against a forced
// rebuild and against the flat O(buffer) reference scan, which shares no
// selection code with the bank index (audit_on.go); internal/sim pins the
// command streams to digests of that reference. Policies without an
// OrderEpoch (custom schedulers) rebuild their read entries every scan.

// bankCand is one bank's cached scan result for one direction (reads or
// writes).
type bankCand struct {
	// valid is cleared by the controller on any event touching the bank's
	// queue; openRow and epoch staleness are detected by comparison instead.
	valid bool
	// epoch is the policy's OrderEpoch at rebuild. Unused (zero) for writes,
	// whose FR-FCFS order is time-invariant.
	epoch uint64
	// openRow is the bank's open row at rebuild (-1 when closed); it decides
	// class membership, so a different current value forces a rebuild.
	openRow int64
	// act is the best request when the bank was closed (every request needs
	// an activate); hit and miss are the best open-row and conflicting
	// requests when it was open. Winners are over *eligible* requests only.
	act, hit, miss *Request
	// filtered records whether any queued request was eligibility-filtered
	// at rebuild, which disqualifies the bank from contributing a timing
	// bound on failure (the request may become eligible at any cycle).
	filtered bool
}

// invalidate marks the entry stale; the next scan rebuilds it.
func (e *bankCand) invalidate() { e.valid = false }

// cacheInsert folds a just-enqueued request into its bank's entry in O(1):
// adding a request can only change the winner of the request's own class,
// and only to the request itself. Call it after the policy's OnEnqueue hook
// has run — NFQ stamps the deadline and PAR-BS the empty-slot mark there,
// and the comparison below must see them. Classification uses the entry's
// stored openRow: if the device has moved on, the next scan rebuilds the
// entry anyway, and if the policy's epoch has moved the scan rebuilds too,
// so the comparison below only ever survives under the state it ran in.
func (c *Controller) cacheInsert(cache []bankCand, r *Request, isWrite bool) {
	e := &cache[r.Loc.Bank]
	if !e.valid {
		return
	}
	if !isWrite && c.elig != nil && !c.elig.Eligible(r) {
		e.filtered = true
		return
	}
	cas := dram.CmdRead
	if isWrite {
		cas = dram.CmdWrite
	}
	switch {
	case e.openRow < 0:
		if e.act == nil || c.better(Candidate{Req: r, Cmd: dram.CmdActivate, RowState: dram.RowClosed},
			Candidate{Req: e.act, Cmd: dram.CmdActivate, RowState: dram.RowClosed}, isWrite) {
			e.act = r
		}
	case r.Loc.Row == e.openRow:
		if e.hit == nil || c.better(Candidate{Req: r, Cmd: cas, RowState: dram.RowHit},
			Candidate{Req: e.hit, Cmd: cas, RowState: dram.RowHit}, isWrite) {
			e.hit = r
		}
	default:
		if e.miss == nil || c.better(Candidate{Req: r, Cmd: dram.CmdPrecharge, RowState: dram.RowConflict},
			Candidate{Req: e.miss, Cmd: dram.CmdPrecharge, RowState: dram.RowConflict}, isWrite) {
			e.miss = r
		}
	}
}

// cacheRemove updates a bank's entry for a request leaving its queue.
// Removing a non-winner cannot change any class winner, so the entry stays
// valid; removing a cached winner (the common case — the issued CAS *is*
// the scan's pick) demands a rebuild to find the runner-up. A set filtered
// flag also forces the rebuild: the departing request may have been the
// last ineligible one, and a stale flag would pin the bank's failure bound
// to `now`, diverging from the cache-off arm.
func (e *bankCand) cacheRemove(r *Request) {
	if r == e.act || r == e.hit || r == e.miss || e.filtered {
		e.valid = false
	}
}

// rebuild recomputes the entry's class winners by walking the bank queue
// once. Within-class comparisons use the same ordering function as the scan,
// applied to candidates of the class's (command, row-state) shape, so the
// stored winner is exactly the request the full enumeration would have
// preferred within that class.
func (c *Controller) rebuild(e *bankCand, q *reqList, openRow int64, isWrite bool, elig EligibilityPolicy) {
	e.openRow = openRow
	e.act, e.hit, e.miss = nil, nil, nil
	e.filtered = false
	cas := dram.CmdRead
	if isWrite {
		cas = dram.CmdWrite
	}
	for r := q.head; r != nil; r = q.next(r) {
		if elig != nil && !elig.Eligible(r) {
			e.filtered = true
			continue
		}
		switch {
		case openRow < 0:
			if e.act == nil || c.better(Candidate{Req: r, Cmd: dram.CmdActivate, RowState: dram.RowClosed},
				Candidate{Req: e.act, Cmd: dram.CmdActivate, RowState: dram.RowClosed}, isWrite) {
				e.act = r
			}
		case r.Loc.Row == openRow:
			if e.hit == nil || c.better(Candidate{Req: r, Cmd: cas, RowState: dram.RowHit},
				Candidate{Req: e.hit, Cmd: cas, RowState: dram.RowHit}, isWrite) {
				e.hit = r
			}
		default:
			if e.miss == nil || c.better(Candidate{Req: r, Cmd: dram.CmdPrecharge, RowState: dram.RowConflict},
				Candidate{Req: e.miss, Cmd: dram.CmdPrecharge, RowState: dram.RowConflict}, isWrite) {
				e.miss = r
			}
		}
	}
}

// bestCandidate picks the ordering function's most-preferred legal command
// over the given per-bank queues: the scheduling fast path. It visits only
// the banks in mask — the controller's non-empty-bank set for the direction,
// so a scan costs the occupied banks, not the geometry — and per bank it
// performs one readiness check, one ScanBank legality probe, and — when the
// bank's cached entry is fresh — O(1) class-winner comparisons; stale
// entries are rebuilt with a single queue walk. useCache false (policies
// without an OrderEpoch, and the audit's forced rebuild) rebuilds every bank
// on every scan, which runs the identical selection and bound logic on
// always-fresh entries.
//
// Every registered policy's Better is a strict total order (ties break on
// the unique request ID), so the winner is independent of enumeration order
// and both cache arms select exactly what the flat reference scan would —
// checked at every scan by the parbsdebug audit.
//
// The third result is a lower bound on the next cycle at which any command
// for this queue set could become legal, valid until the next enqueue or
// issue (both invalidate the caller's idle cache). Whenever a bank's failure
// cannot be bounded from timing alone (an eligibility-filtered request may
// become eligible at any cycle), the bank contributes `now`, disabling
// skipping.
func (c *Controller) bestCandidate(queues []reqList, mask bitmask, cache []bankCand, useCache bool, now int64, isWrite bool) (Candidate, bool, int64) {
	var best Candidate
	found := false
	bound := int64(math.MaxInt64)
	var elig EligibilityPolicy
	if !isWrite {
		elig = c.elig
	}
	var epoch uint64
	if useCache && !isWrite {
		epoch = c.epoched.OrderEpoch()
	}
	cas := dram.CmdRead
	if isWrite {
		cas = dram.CmdWrite
	}
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			if br := c.dev.BankReadyAt(b); now < br {
				if br < bound {
					bound = br
				}
				continue
			}
			openRow, tAct, tCAS, tPre := c.dev.ScanBank(b, isWrite)
			e := &cache[b]
			if !useCache || !e.valid || e.openRow != openRow || (!isWrite && e.epoch != epoch) {
				c.rebuild(e, &queues[b], openRow, isWrite, elig)
				e.epoch = epoch
				e.valid = true
			}
			if openRow < 0 {
				// Closed bank: every request needs an activate, whose
				// legality is row-independent — one check covers the queue.
				if now < tAct {
					if tAct < bound {
						bound = tAct
					}
					continue
				}
				if e.act == nil {
					bound = now // all eligibility-filtered; no timing bound
					continue
				}
				cand := Candidate{Req: e.act, Cmd: dram.CmdActivate, RowState: dram.RowClosed}
				if !found || c.better(cand, best, isWrite) {
					best, found = cand, true
				}
				continue
			}
			// Open bank: requests to the open row need a CAS, the rest a
			// precharge; each class's legality is again a single check.
			canCAS := now >= tCAS
			canPre := now >= tPre
			if !canCAS && !canPre {
				t := tCAS
				if tPre < t {
					t = tPre
				}
				if t < bound {
					bound = t
				}
				continue
			}
			had := false
			if e.hit != nil && canCAS {
				cand := Candidate{Req: e.hit, Cmd: cas, RowState: dram.RowHit}
				had = true
				if !found || c.better(cand, best, isWrite) {
					best, found = cand, true
				}
			}
			if e.miss != nil && canPre {
				cand := Candidate{Req: e.miss, Cmd: dram.CmdPrecharge, RowState: dram.RowConflict}
				had = true
				if !found || c.better(cand, best, isWrite) {
					best, found = cand, true
				}
			}
			if !had {
				// No candidate despite a legal class: the blocked class's own
				// readiness bounds the bank. Any eligibility-filtered request
				// bounds to now — it may become eligible while its class is
				// already legal.
				t := now
				if sawHit, sawConflict := e.hit != nil && !canCAS, e.miss != nil && !canPre; !e.filtered && (sawHit || sawConflict) {
					t = int64(math.MaxInt64)
					if sawHit && tCAS < t {
						t = tCAS
					}
					if sawConflict && tPre < t {
						t = tPre
					}
				}
				if t < bound {
					bound = t
				}
			}
		}
	}
	auditScan(c, queues, mask, cache, useCache, now, isWrite, best, found, bound)
	return best, found, bound
}
