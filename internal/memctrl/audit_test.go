//go:build parbsdebug

package memctrl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dram"
)

// epochedTestPolicy is testPolicy with a constant order epoch, so the
// controller reuses its cached read winners across scans.
type epochedTestPolicy struct{ testPolicy }

func (p *epochedTestPolicy) OrderEpoch() uint64 { return 0 }

// expectAuditPanic runs fn and fails unless it panics with a message
// containing want — which it cannot do with the audit hooks stubbed out.
func expectAuditPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no audit panic; want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

// newAuditController returns a one-thread controller whose read scans reuse
// cached winners.
func newAuditController(t *testing.T) *Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.DDR2_800(), dram.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(dev, &epochedTestPolicy{}, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAuditCatchesDivergence proves the parbsdebug audit is not vacuous: it
// corrupts the controller's state the way a stale cache or a bad idle bound
// would, and the next decision must panic with the audit's message.
func TestAuditCatchesDivergence(t *testing.T) {
	t.Run("swapped-cached-winner", func(t *testing.T) {
		c := newAuditController(t)
		g := c.Device().Geometry()
		// Two reads to the same closed bank: the older one is the FR-FCFS
		// winner of the activate class.
		older, _ := c.EnqueueRead(0, g.Unmap(dram.Location{Bank: 0, Row: 5}), 0)
		younger, _ := c.EnqueueRead(0, g.Unmap(dram.Location{Bank: 0, Row: 9}), 0)
		best, ok, _ := c.bestCandidate(c.bankReads, c.readBanks, c.readCache, c.cacheReads, 0, false)
		if !ok || best.Req != older {
			t.Fatalf("setup: scan picked %+v (found=%v), want the older read", best.Req, ok)
		}
		c.readCache[0].act = younger
		expectAuditPanic(t, "stale candidate cache", func() {
			c.bestCandidate(c.bankReads, c.readBanks, c.readCache, c.cacheReads, 0, false)
		})
	})

	t.Run("idle-cache-over-legal-command", func(t *testing.T) {
		c := newAuditController(t)
		c.EnqueueRead(0, 0, 0)
		// The activate for the read is legal at cycle 0; an idle bound
		// armed past it would silently skip it.
		c.idleUntil = 100
		expectAuditPanic(t, "idle cache skipped cycle 0", func() { c.Tick(0) })
	})
}
