package analysis

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/trace"
)

// auditText renders an audit, failing the test on a write error.
func auditText(t *testing.T, a *Audit) string {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAuditWaitDecomposition builds a hand-sequenced log and checks the
// batches-waited accounting, the verdict, and the three-phase wait split of
// the report against exact values.
//
// Timeline (MarkingCap 2, ReadBuf 4 → batch-wait bound ceil(4/2)-1 = 1):
//
//	req 1 (thread 0): arrives c0 before any batch, marked at batch 0
//	                  (waited 0), first command c20, returns c50 (lat 50)
//	req 2 (thread 1): arrives c60 after batch 0 (arrivalBatch 1), passed
//	                  over by batch 1, marked at batch 2 (waited 1 = bound),
//	                  first command c110, returns c200 (lat 140)
//	req 3 (thread 0): a write — excluded from read forensics entirely
func TestAuditWaitDecomposition(t *testing.T) {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "PAR-BS", Workload: "synthetic", Cores: 2, Banks: 1,
		MarkingCap: 2, ReadBufEntries: 4})

	tr.RequestArrived(1, 0, 0, 1, false, 0)
	tr.RequestMarked(1, 0, 0, 10)
	tr.BatchFormedDetail(0, 10, 1, []int{1, 0}, 0)
	tr.CommandIssued(1, 0, dram.CmdActivate, 0, 1, 0, 20)
	tr.RequestArrived(3, 0, 0, 2, true, 30)
	tr.RequestCompleted(1, 0, 50, 50)
	tr.BatchDrained(0, 50, 40)
	tr.RequestCompleted(3, 0, 55, 25) // write retires, ignored

	tr.RequestArrived(2, 1, 0, 9, false, 60)
	tr.BatchFormedDetail(1, 70, 0, []int{0, 0}, 0) // passes req 2 over
	tr.BatchDrained(1, 90, 20)
	tr.RequestMarked(2, 1, 2, 100)
	tr.BatchFormedDetail(2, 100, 1, []int{0, 1}, 1)
	tr.CommandIssued(2, 1, dram.CmdActivate, 0, 9, 0, 110)
	tr.RequestCompleted(2, 1, 200, 140)
	tr.BatchDrained(2, 200, 100)

	s := FromLog(tr.Log())
	a := s.Audit()
	if a.Requests != 2 {
		t.Fatalf("Requests = %d, want 2 (write must be excluded)", a.Requests)
	}
	if a.Batches != 3 || a.MaxBatchSpan != 100 {
		t.Errorf("Batches=%d MaxBatchSpan=%d, want 3/100", a.Batches, a.MaxBatchSpan)
	}
	if len(a.Threads) != 2 {
		t.Fatalf("threads = %d, want 2", len(a.Threads))
	}
	want := []ThreadAudit{
		{Thread: 0, Reads: 1, MaxLatency: 50, MaxLatencyReq: 1, MaxBatchesWaited: 0},
		{Thread: 1, Reads: 1, MaxLatency: 140, MaxLatencyReq: 2, MaxBatchesWaited: 1},
	}
	for i, w := range want {
		if a.Threads[i] != w {
			t.Errorf("thread %d = %+v, want %+v", i, a.Threads[i], w)
		}
	}

	v := a.Verdict
	if !v.Batched || v.BatchWaitBound != 1 || v.MaxBatchesWaited != 1 || !v.BatchWaitOK {
		t.Errorf("batch-wait audit wrong: %+v", v)
	}
	if v.DelayBoundCycles != 300 { // (1+2) * max span 100
		t.Errorf("DelayBoundCycles = %d, want 300", v.DelayBoundCycles)
	}
	if v.MaxDelayCycles != 140 || v.MaxDelayThread != 1 || v.MaxDelayReq != 2 {
		t.Errorf("worst delay wrong: %+v", v)
	}
	if !v.DelayOK || !v.Holds {
		t.Errorf("audit should hold: %+v", v)
	}
	if out := auditText(t, a); !strings.Contains(out, "starvation audit: PASS") {
		t.Errorf("text audit lacks the PASS line:\n%s", out)
	}

	// The report splits the same reads' waits into the three phases.
	r := s.Analyze(Options{})
	t0, t1 := r.Threads[0], r.Threads[1]
	if t0.Reads != 1 || t0.Unmarked != 10 || t0.Marked != 10 || t0.Service != 30 {
		t.Errorf("thread 0 decomposition wrong: %+v", t0)
	}
	if t1.Reads != 1 || t1.Unmarked != 40 || t1.Marked != 10 || t1.Service != 90 {
		t.Errorf("thread 1 decomposition wrong: %+v", t1)
	}
}

// TestAuditDetectsBoundViolation: a request passed over by more batch
// formations than the Marking-Cap permits must flip the verdict to FAIL.
func TestAuditDetectsBoundViolation(t *testing.T) {
	tr := trace.NewTracer(trace.Config{})
	// ReadBuf 5, cap 5 → bound ceil(5/5)-1 = 0 batch formations.
	tr.Bind(trace.Meta{Policy: "PAR-BS", MarkingCap: 5, ReadBufEntries: 5})
	tr.RequestArrived(1, 0, 0, 1, false, 0)
	tr.BatchFormedDetail(0, 5, 0, []int{0}, 0) // passes req 1 over: waited 1 > 0
	tr.BatchDrained(0, 10, 5)
	tr.RequestMarked(1, 0, 1, 20)
	tr.BatchFormedDetail(1, 20, 1, []int{1}, 0)
	tr.CommandIssued(1, 0, dram.CmdActivate, 0, 1, 0, 25)
	tr.RequestCompleted(1, 0, 40, 40)
	tr.BatchDrained(1, 40, 20)

	a := FromLog(tr.Log()).Audit()
	v := a.Verdict
	if v.BatchWaitBound != 0 || v.MaxBatchesWaited != 1 {
		t.Fatalf("setup wrong: bound=%d waited=%d", v.BatchWaitBound, v.MaxBatchesWaited)
	}
	if v.BatchWaitOK || v.Holds {
		t.Errorf("violation not detected: %+v", v)
	}
	out := auditText(t, a)
	if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "starvation audit: FAIL") {
		t.Errorf("text audit does not flag the violation:\n%s", out)
	}
}

// TestAuditCountsBatchesPerChannel: independent channels form batches of
// their own, so a request is charged only its own channel's formations.
// Channel 0 forms two batches while a channel-1 request waits; channel 1
// then marks it in its first batch (waited 0 against a bound of 0). Counted
// across channels it would have waited 2.
func TestAuditCountsBatchesPerChannel(t *testing.T) {
	root := trace.NewTracer(trace.Config{})
	root.Bind(trace.Meta{Policy: "PAR-BS", Cores: 2, Banks: 1, Channels: 2,
		MarkingCap: 5, ReadBufEntries: 5})
	ch0, ch1 := root.NewShard(0), root.NewShard(1)
	ch1.RequestArrived(1, 1, 0, 1, false, 0)
	ch0.BatchFormedDetail(0, 5, 0, []int{0, 0}, 0)
	ch0.BatchFormedDetail(1, 8, 0, []int{0, 0}, 0)
	ch1.RequestMarked(1, 1, 0, 10)
	ch1.BatchFormedDetail(0, 10, 1, []int{0, 1}, 0)
	ch1.CommandIssued(1, 1, dram.CmdActivate, 0, 1, 0, 12)
	ch1.RequestCompleted(1, 1, 30, 30)
	ch1.BatchDrained(0, 30, 20)
	root.MergeShards([]*trace.Tracer{ch0, ch1})

	a := FromLog(root.Log()).Audit()
	v := a.Verdict
	if a.Batches != 3 || v.BatchWaitBound != 0 {
		t.Fatalf("setup wrong: batches=%d bound=%d", a.Batches, v.BatchWaitBound)
	}
	if v.MaxBatchesWaited != 0 || a.Threads[0].MaxBatchesWaited != 0 || !v.Holds {
		t.Errorf("cross-channel formations charged to the request: %+v", a)
	}
}

// TestAuditUnbatchedPolicy: a policy that never forms batches (FR-FCFS)
// offers no bound; the audit reports that rather than vacuously passing.
func TestAuditUnbatchedPolicy(t *testing.T) {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "FR-FCFS", ReadBufEntries: 64})
	tr.RequestArrived(1, 0, 0, 1, false, 0)
	tr.CommandIssued(1, 0, dram.CmdActivate, 0, 1, -1, 10)
	tr.RequestCompleted(1, 0, 40, 40)

	s := FromLog(tr.Log())
	a := s.Audit()
	v := a.Verdict
	if v.Batched || v.BatchWaitBound != -1 || v.DelayBoundCycles != -1 || v.Holds {
		t.Errorf("unbatched audit wrong: %+v", v)
	}
	if v.MaxDelayCycles != 40 || v.MaxDelayThread != 0 || v.MaxDelayReq != 1 {
		t.Errorf("worst delay wrong: %+v", v)
	}
	// Never marked: the whole pre-command wait counts as unmarked-queued.
	if th := s.Analyze(Options{}).Threads[0]; th.Unmarked != 10 || th.Marked != 0 || th.Service != 30 {
		t.Errorf("unmarked decomposition wrong: %+v", th)
	}
	if out := auditText(t, a); !strings.Contains(out, "starvation audit: FAIL (no bound to audit)") ||
		!strings.Contains(out, `policy "FR-FCFS" formed no batches`) {
		t.Errorf("text audit lacks the no-bound FAIL lines:\n%s", out)
	}
}

// TestAuditUncappedPolicy: batching without a Marking-Cap has no finite
// bound either.
func TestAuditUncappedPolicy(t *testing.T) {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "PAR-BS", MarkingCap: 0, ReadBufEntries: 64})
	tr.RequestArrived(1, 0, 0, 1, false, 0)
	tr.RequestMarked(1, 0, 0, 5)
	tr.BatchFormedDetail(0, 5, 1, []int{1}, 0)
	tr.RequestCompleted(1, 0, 40, 40)

	a := FromLog(tr.Log()).Audit()
	if v := a.Verdict; !v.Batched || v.BatchWaitBound != -1 || v.Holds {
		t.Errorf("uncapped audit wrong: %+v", v)
	}
	if out := auditText(t, a); !strings.Contains(out, "Marking-Cap is uncapped") ||
		!strings.Contains(out, "starvation audit: FAIL (no bound to audit)") {
		t.Errorf("text audit lacks the uncapped FAIL lines:\n%s", out)
	}
}

// TestAnalyzeMarkEndFallsBackToCompletion: a marked request with no traced
// command charges its whole post-mark wait to marked-waiting, not service.
func TestAnalyzeMarkEndFallsBackToCompletion(t *testing.T) {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "PAR-BS", Cores: 1, MarkingCap: 5, ReadBufEntries: 5})
	tr.RequestArrived(1, 0, 0, 1, false, 0)
	tr.RequestMarked(1, 0, 0, 10)
	tr.BatchFormedDetail(0, 10, 1, []int{1}, 0)
	tr.RequestCompleted(1, 0, 60, 60)

	if th := FromLog(tr.Log()).Analyze(Options{}).Threads[0]; th.Unmarked != 10 || th.Marked != 50 || th.Service != 0 {
		t.Errorf("fallback decomposition wrong: %+v", th)
	}
}

// TestAuditTruncatedLogFlagged: record-time drops and a torn stream both
// surface as Truncated with the prefix's figures intact, and the text audit
// carries the caveat.
func TestAuditTruncatedLogFlagged(t *testing.T) {
	log := fixtureLog()
	log.Dropped = 123
	a := FromLog(log).Audit()
	if !a.Truncated || a.Dropped != 123 || a.IngestTruncated {
		t.Fatalf("Truncated=%v Dropped=%d IngestTruncated=%v, want true/123/false",
			a.Truncated, a.Dropped, a.IngestTruncated)
	}
	if a.Requests != 2 {
		t.Errorf("Requests = %d, want 2 (prefix still audited)", a.Requests)
	}
	if out := auditText(t, a); !strings.Contains(out, "123 events dropped") {
		t.Errorf("text audit lacks the drop caveat:\n%s", out)
	}

	var full bytes.Buffer
	if err := trace.WriteJSONL(&full, fixtureLog()); err != nil {
		t.Fatal(err)
	}
	s, err := Ingest(bytes.NewReader(full.Bytes()[:full.Len()-5]))
	if err != nil {
		t.Fatal(err)
	}
	a = s.Audit()
	if !a.Truncated || !a.IngestTruncated || a.Requests != 2 {
		t.Errorf("torn stream: Truncated=%v IngestTruncated=%v Requests=%d, want true/true/2",
			a.Truncated, a.IngestTruncated, a.Requests)
	}
	if out := auditText(t, a); !strings.Contains(out, "truncated during ingest") {
		t.Errorf("text audit lacks the ingest caveat:\n%s", out)
	}
}
