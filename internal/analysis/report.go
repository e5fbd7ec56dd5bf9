package analysis

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// WriteText renders the report as human-readable tables: whole-span
// bottleneck attribution first (the question a starvation audit asks),
// then per-thread wait decomposition, the window timeline, and the batch
// summary. `parbs-trace report` prints this; -json emits the Report
// struct instead.
func (r *Report) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	writeRunLine(p, r.Meta)
	p("events: %d  span: [0, %d) DRAM cycles  windows: %d x %d cycles\n",
		r.Events, r.SpanEnd, len(r.Windows), r.WindowCycles)
	p("requests: %d completed reads, %d still in flight at span end\n", r.Requests, r.InFlight)
	p("latency percentiles (all reads, cycles): p50=%d p90=%d p99=%d\n",
		r.LatencyPct.P50, r.LatencyPct.P90, r.LatencyPct.P99)
	writeTruncationNotes(p, r.Dropped, r.IngestTruncated)

	p("\nbottleneck attribution (queued wait = unmarked + marked cycles, whole span):\n")
	p("  rank  bank        wait_cycles      thread      wait_cycles\n")
	n := max(len(r.TopBanks), len(r.TopThreads))
	for i := 0; i < n; i++ {
		bankLbl, bankWait, thrLbl, thrWait := "-", "-", "-", "-"
		if i < len(r.TopBanks) {
			bankLbl = r.TopBanks[i].Label
			bankWait = fmt.Sprintf("%d", r.TopBanks[i].Cycles)
		}
		if i < len(r.TopThreads) {
			thrLbl = r.TopThreads[i].Label
			thrWait = fmt.Sprintf("%d", r.TopThreads[i].Cycles)
		}
		p("  %4d  %-8s %14s      %-8s %14s\n", i+1, bankLbl, bankWait, thrLbl, thrWait)
	}

	p("\nper-thread wait decomposition (cycle sums over the span; percentiles nearest-rank per read):\n")
	p("  thread    reads  inflight    unmarked      marked     service   lat.p50   lat.p90   lat.p99  wait.p99\n")
	for _, t := range r.Threads {
		p("  %6d %8d %9d %11d %11d %11d %9d %9d %9d %9d\n",
			t.Thread, t.Reads, t.InFlight, t.Unmarked, t.Marked, t.Service,
			t.LatencyPct.P50, t.LatencyPct.P90, t.LatencyPct.P99, t.WaitPct.P99)
	}

	p("\nwindow timeline (busy%% = cycles with a command issued):\n")
	p("  window          cycles  commands  busy%%  arrivals  done  batches  top bank (wait)      top thread (wait)\n")
	for _, win := range r.Windows {
		span := win.End - win.Start
		busy := 0.0
		if span > 0 {
			busy = 100 * float64(win.BusyCycles) / float64(span)
		}
		topB, topT := "-", "-"
		if len(win.TopBanks) > 0 {
			topB = fmt.Sprintf("%s (%d)", win.TopBanks[0].Label, win.TopBanks[0].Cycles)
		}
		if len(win.TopThreads) > 0 {
			topT = fmt.Sprintf("%s (%d)", win.TopThreads[0].Label, win.TopThreads[0].Cycles)
		}
		p("  %7d %7d-%-7d %9d %6.1f %9d %5d %8d  %-20s %-20s\n",
			win.Index, win.Start, win.End, win.Commands, busy,
			win.Arrivals, win.Completions, win.BatchesFormed, topB, topT)
	}

	formed, drained := len(r.Batches), 0
	var spanSum, spanMax int64
	for _, b := range r.Batches {
		if b.Drained >= 0 {
			drained++
			d := b.Drained - b.Formed
			spanSum += d
			if d > spanMax {
				spanMax = d
			}
		}
	}
	p("\nbatches: %d formed, %d drained", formed, drained)
	if drained > 0 {
		p(" (avg span %.0f cycles, max %d)", float64(spanSum)/float64(drained), spanMax)
	}
	p("\n")
	return err
}

// writeRunLine prints the traced run's shape, the first line of both the
// report and the audit.
func writeRunLine(p func(string, ...any), m trace.Meta) {
	p("run: policy=%s workload=%s cores=%d banks=%d", m.Policy, m.Workload, m.Cores, m.Banks)
	if m.Channels > 1 {
		p(" channels=%d", m.Channels)
	}
	p(" marking_cap=%d read_buf=%d\n", m.MarkingCap, m.ReadBufEntries)
}

// writeTruncationNotes flags figures that cover only a prefix of the run.
func writeTruncationNotes(p func(string, ...any), dropped int64, ingestTruncated bool) {
	if dropped > 0 {
		p("NOTE: trace truncated (%d events dropped at record time); figures cover the recorded prefix only\n", dropped)
	}
	if ingestTruncated {
		p("NOTE: trace stream truncated during ingest (torn tail or malformed line); figures cover the parseable prefix only\n")
	}
}
