package serve

import (
	"strings"
	"testing"

	parbs "repro"
)

// TestOccupancyGauge: progress heartbeats feed the per-channel pending-reads
// gauge, alone-baseline phases are ignored, and lockstep runs expose their
// single ganged stream as channel 0.
func TestOccupancyGauge(t *testing.T) {
	m := NewMetrics()

	renderOut := func() string {
		var b strings.Builder
		m.render(&b, gauges{})
		return b.String()
	}
	if out := renderOut(); strings.Contains(out, "parbs_serve_pending_reads") {
		t.Error("gauge rendered before any heartbeat")
	}

	m.observeOccupancy(parbs.Progress{Phase: "measure", PendingReads: 7})
	if out := renderOut(); !strings.Contains(out, `parbs_serve_pending_reads{channel="0"} 7`) {
		t.Errorf("lockstep heartbeat not exposed as channel 0:\n%s", out)
	}

	m.observeOccupancy(parbs.Progress{Phase: "measure", PendingReads: 9, PendingPerChannel: []int{4, 5}})
	out := renderOut()
	for _, want := range []string{
		`parbs_serve_pending_reads{channel="0"} 4`,
		`parbs_serve_pending_reads{channel="1"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// An alone-baseline heartbeat must not clobber the shared-run snapshot.
	m.observeOccupancy(parbs.Progress{Phase: "alone:mcf", PendingReads: 1, PendingPerChannel: []int{1}})
	if out := renderOut(); !strings.Contains(out, `parbs_serve_pending_reads{channel="1"} 5`) {
		t.Errorf("alone-phase heartbeat clobbered the gauge:\n%s", out)
	}
}

// TestSSEProgressPerChannel: the SSE wire form carries per-channel occupancy
// when present and omits it under lockstep.
func TestSSEProgressPerChannel(t *testing.T) {
	v := progressViewOf(parbs.Progress{Phase: "measure", PendingReads: 9, PendingPerChannel: []int{4, 5}})
	if len(v.PendingPerChannel) != 2 || v.PendingPerChannel[0] != 4 || v.PendingPerChannel[1] != 5 {
		t.Errorf("progressViewOf dropped per-channel occupancy: %+v", v)
	}
	if v := progressViewOf(parbs.Progress{Phase: "measure", PendingReads: 9}); v.PendingPerChannel != nil {
		t.Errorf("lockstep view should omit pending_per_channel, got %v", v.PendingPerChannel)
	}
}
