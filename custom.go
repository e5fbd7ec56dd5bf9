package parbs

import (
	"fmt"

	"repro/internal/memctrl"
)

// RequestView is the read-only view of a buffered DRAM request exposed to
// custom scheduling policies.
type RequestView struct {
	// ID is the arrival sequence number; smaller is older.
	ID int64
	// Thread is the requesting core.
	Thread int
	// Bank and Row locate the request in DRAM.
	Bank int
	Row  int64
	// RowHit reports whether the request would be serviced from the
	// currently open row (no activate needed).
	RowHit bool
}

// CustomPolicy lets library users implement their own DRAM scheduler
// against the same substrate the paper's schedulers run on. Less is
// consulted every DRAM cycle over the ready candidates; returning true
// means a should be serviced before b. It must induce a strict weak
// ordering (in particular, Less(x, x) must be false).
//
// For stateful policies (virtual clocks, batching, ...), use the optional
// hooks: OnEnqueue when a request enters the buffer and OnComplete when
// its data returns.
type CustomPolicy struct {
	// Name labels the policy in reports. Required.
	Name string
	// Less orders ready candidates. Required.
	Less func(a, b RequestView) bool
	// OnEnqueue, if non-nil, runs when a read request arrives.
	OnEnqueue func(r RequestView, now int64)
	// OnComplete, if non-nil, runs when a read request finishes.
	OnComplete func(r RequestView, now int64)
}

// NewCustomScheduler wraps a CustomPolicy as a Scheduler usable with Run.
// It returns an error if the policy is missing its name or ordering.
//
// On an Independent-channel system each channel wraps the same CustomPolicy
// in its own adapter, so the Less/OnEnqueue/OnComplete functions see
// requests from every channel, one channel at a time in channel order.
func NewCustomScheduler(p CustomPolicy) (Scheduler, error) {
	if p.Name == "" {
		return Scheduler{}, fmt.Errorf("parbs: custom policy needs a name")
	}
	if p.Less == nil {
		return Scheduler{}, fmt.Errorf("parbs: custom policy needs a Less function")
	}
	return newScheduler(func() memctrl.Policy { return &customAdapter{p: p} }), nil
}

// customAdapter lowers a CustomPolicy onto the internal policy interface.
//
// It deliberately does not implement memctrl.EpochedPolicy: a Less function
// may read arbitrary closed-over state, so no within-bank order-stability
// promise can be inferred for it. The controller therefore runs custom
// policies without the per-bank candidate cache (DESIGN.md §16) — every
// bank's class winners are recomputed on every evaluated cycle, which is
// always correct, just slower than the built-in schedulers.
type customAdapter struct {
	p CustomPolicy
}

func view(r *memctrl.Request, hit bool) RequestView {
	return RequestView{ID: r.ID, Thread: r.Thread, Bank: r.Loc.Bank, Row: r.Loc.Row, RowHit: hit}
}

// Name implements memctrl.Policy.
func (a *customAdapter) Name() string { return a.p.Name }

// Better implements memctrl.Policy.
func (a *customAdapter) Better(x, y memctrl.Candidate) bool {
	return a.p.Less(view(x.Req, x.IsRowHit()), view(y.Req, y.IsRowHit()))
}

// OnAttach implements memctrl.Policy.
func (a *customAdapter) OnAttach(*memctrl.Controller) {}

// OnEnqueue implements memctrl.Policy.
func (a *customAdapter) OnEnqueue(r *memctrl.Request, now int64) {
	if a.p.OnEnqueue != nil {
		a.p.OnEnqueue(view(r, false), now)
	}
}

// OnIssue implements memctrl.Policy.
func (a *customAdapter) OnIssue(memctrl.Candidate, int64) {}

// OnComplete implements memctrl.Policy.
func (a *customAdapter) OnComplete(r *memctrl.Request, now int64) {
	if a.p.OnComplete != nil {
		a.p.OnComplete(view(r, r.WasRowHit()), now)
	}
}

// OnCycle implements memctrl.Policy.
func (a *customAdapter) OnCycle(int64) {}
