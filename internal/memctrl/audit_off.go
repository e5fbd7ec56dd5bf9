//go:build !parbsdebug

package memctrl

// Release-build no-ops of the scheduling-decision audit; the parbsdebug
// build tag swaps in the checking versions and the flat reference scans they
// compare against (audit_on.go). The empty bodies inline away.

func auditScan(*Controller, []reqList, bitmask, []bankCand, bool, int64, bool, Candidate, bool, int64) {
}

func auditIdleSkip(*Controller, int64) {}

func auditRowWanted(*Controller, *Request, bool) {}
