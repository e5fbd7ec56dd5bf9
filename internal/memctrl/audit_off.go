//go:build !parbsdebug

package memctrl

// auditCandidateCache is the release-build no-op of the candidate-cache
// staleness audit; the parbsdebug build tag swaps in the checking version
// (audit_on.go). The empty body inlines away.
func auditCandidateCache(*Controller, []reqList, bitmask, int64, bool, Candidate, bool, int64) {}
