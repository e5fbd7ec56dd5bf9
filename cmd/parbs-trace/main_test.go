package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dram"
	"repro/internal/trace"
)

// runCapture invokes run with stdout captured, returning the exit code and
// everything the subcommand printed.
func runCapture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := run(args)
	w.Close()
	os.Stdout = old
	return code, <-out
}

// goodTracer builds a clean PAR-BS log whose starvation audit passes
// (the internal/analysis TestAuditWaitDecomposition timeline: bound 1,
// worst wait 1).
func goodTracer() *trace.Tracer {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "PAR-BS", Workload: "synthetic", Cores: 2, Banks: 1,
		MarkingCap: 2, ReadBufEntries: 4, TotalDRAM: 200})
	tr.RequestArrived(1, 0, 0, 1, false, 0)
	tr.RequestMarked(1, 0, 0, 10)
	tr.BatchFormedDetail(0, 10, 1, []int{1, 0}, 0)
	tr.CommandIssued(1, 0, dram.CmdActivate, 0, 1, 0, 20)
	tr.RequestCompleted(1, 0, 50, 50)
	tr.BatchDrained(0, 50, 40)
	tr.RequestArrived(2, 1, 0, 9, false, 60)
	tr.BatchFormedDetail(1, 70, 0, []int{0, 0}, 0)
	tr.BatchDrained(1, 90, 20)
	tr.RequestMarked(2, 1, 2, 100)
	tr.BatchFormedDetail(2, 100, 1, []int{0, 1}, 1)
	tr.CommandIssued(2, 1, dram.CmdActivate, 0, 9, 0, 110)
	tr.RequestCompleted(2, 1, 200, 140)
	tr.BatchDrained(2, 200, 100)
	return tr
}

// violTracer builds a log whose batch-wait bound is violated (bound 0,
// observed 1 — the internal/analysis TestAuditDetectsBoundViolation
// timeline).
func violTracer() *trace.Tracer {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "PAR-BS", MarkingCap: 5, ReadBufEntries: 5})
	tr.RequestArrived(1, 0, 0, 1, false, 0)
	tr.BatchFormedDetail(0, 5, 0, []int{0}, 0)
	tr.BatchDrained(0, 10, 5)
	tr.RequestMarked(1, 0, 1, 20)
	tr.BatchFormedDetail(1, 20, 1, []int{1}, 0)
	tr.CommandIssued(1, 0, dram.CmdActivate, 0, 1, 0, 25)
	tr.RequestCompleted(1, 0, 40, 40)
	tr.BatchDrained(1, 40, 20)
	return tr
}

// writeLog serializes a tracer's log to dir/name with an optional forced
// record-time drop count.
func writeLog(t *testing.T, dir, name string, tr *trace.Tracer, dropped int64) string {
	t.Helper()
	log := tr.Log()
	log.Dropped = dropped
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteJSONL(f, log); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the CLI contract: 0 success, 1 data loss or
// bound violation (with output still printed), 2 usage/parse errors.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := writeLog(t, dir, "good.jsonl", goodTracer(), 0)
	viol := writeLog(t, dir, "viol.jsonl", violTracer(), 0)
	dropped := writeLog(t, dir, "dropped.jsonl", goodTracer(), 3)

	// A mid-line tear: the parseable prefix survives, ingest is truncated.
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(trunc, raw[:len(raw)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("usage", func(t *testing.T) {
		for _, args := range [][]string{
			nil,
			{"frobnicate"},
			{"analyze"},
			{"analyze", "-no-such-flag", good},
			{"analyze", filepath.Join(dir, "missing.jsonl")},
			{"report", filepath.Join(dir, "missing.jsonl")},
			{"diff", good},
			{"diff", good, filepath.Join(dir, "missing.jsonl")},
		} {
			if code, _ := runCapture(t, args...); code != exitUsage {
				t.Errorf("run(%q) = %d, want %d", args, code, exitUsage)
			}
		}
	})

	t.Run("analyze", func(t *testing.T) {
		code, out := runCapture(t, "analyze", good)
		if code != exitOK || !strings.Contains(out, "starvation audit: PASS") {
			t.Errorf("clean log: code %d\n%s", code, out)
		}
		// Violations and data loss exit 1 but the report is still printed.
		code, out = runCapture(t, "analyze", viol)
		if code != exitViolation || !strings.Contains(out, "starvation audit: FAIL") {
			t.Errorf("violated bound: code %d\n%s", code, out)
		}
		if code, out = runCapture(t, "analyze", dropped); code != exitViolation || out == "" {
			t.Errorf("dropped events: code %d, want %d with output", code, exitViolation)
		}
		// A torn log is data loss too: the prefix is still audited, with
		// the caveat, rather than refused.
		code, out = runCapture(t, "analyze", trunc)
		if code != exitViolation || !strings.Contains(out, "truncated during ingest") ||
			!strings.Contains(out, "starvation audit: ") {
			t.Errorf("torn log: code %d, want %d with the prefix's audit\n%s", code, exitViolation, out)
		}
	})

	t.Run("analyze-json", func(t *testing.T) {
		// Decode as a consumer would, by the audit's field names.
		var doc struct {
			Meta      struct{ Policy string }
			Truncated bool
			Requests  int64
			Threads   []struct{ Thread, MaxBatchesWaited int64 }
			Audit     struct {
				Batched                                            bool
				BatchWaitBound, MaxBatchesWaited, DelayBoundCycles int64
				Holds                                              bool
			}
		}
		code, out := runCapture(t, "analyze", "-json", good)
		if code != exitOK {
			t.Fatalf("analyze -json: code %d\n%s", code, out)
		}
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("analyze -json output not JSON: %v\n%s", err, out)
		}
		au := doc.Audit
		if doc.Meta.Policy != "PAR-BS" || doc.Truncated || doc.Requests != 2 || len(doc.Threads) != 2 ||
			doc.Threads[1].MaxBatchesWaited != 1 || !au.Batched || au.BatchWaitBound != 1 ||
			au.MaxBatchesWaited != 1 || au.DelayBoundCycles != 300 || !au.Holds {
			t.Errorf("analyze -json audit: %+v", doc)
		}
		code, out = runCapture(t, "analyze", "-json", viol)
		if code != exitViolation {
			t.Fatalf("analyze -json violated: code %d, want %d", code, exitViolation)
		}
		doc.Audit.Holds = true
		if err := json.Unmarshal([]byte(out), &doc); err != nil || doc.Audit.Holds {
			t.Errorf("analyze -json violated: err %v, Holds %v", err, doc.Audit.Holds)
		}
	})

	t.Run("report", func(t *testing.T) {
		code, out := runCapture(t, "report", good)
		if code != exitOK || !strings.Contains(out, "latency percentiles (all reads, cycles)") {
			t.Errorf("clean report: code %d\n%s", code, out)
		}
		code, out = runCapture(t, "report", trunc)
		if code != exitViolation || !strings.Contains(out, "truncated during ingest") {
			t.Errorf("torn trace: code %d\n%s", code, out)
		}
		if code, _ := runCapture(t, "report", dropped); code != exitViolation {
			t.Errorf("dropped events: code %d, want %d", code, exitViolation)
		}
	})

	t.Run("follow", func(t *testing.T) {
		// A completed file's header promises its event count, so the tail
		// finishes on the first drain without waiting out the idle window.
		code, out := runCapture(t, "report", "-follow", "-poll", "10ms", "-idle", "5s", good)
		if code != exitOK || !strings.Contains(out, "=== final:") {
			t.Errorf("follow completed file: code %d\n%s", code, out)
		}
		// A torn file never reaches the promised count: the idle timeout
		// finishes the tail and the data loss surfaces in the exit code.
		code, out = runCapture(t, "report", "-follow", "-poll", "10ms", "-idle", "200ms", trunc)
		if code != exitViolation || !strings.Contains(out, "truncated during ingest") {
			t.Errorf("follow torn file: code %d\n%s", code, out)
		}
	})

	t.Run("diff", func(t *testing.T) {
		code, out := runCapture(t, "diff", good, viol)
		if code != exitOK || !strings.Contains(out, "deltas are B−A") {
			t.Errorf("diff: code %d\n%s", code, out)
		}
		var d analysis.DiffReport
		code, out = runCapture(t, "diff", "-json", "-windows", "50", good, viol)
		if code != exitOK {
			t.Fatalf("diff -json: code %d", code)
		}
		if err := json.Unmarshal([]byte(out), &d); err != nil {
			t.Fatalf("diff -json output not JSON: %v\n%s", err, out)
		}
		if d.WindowCycles != 50 || d.A.Meta.Policy != "PAR-BS" {
			t.Errorf("diff -json report: %+v", d)
		}
		if code, _ := runCapture(t, "diff", good, trunc); code != exitViolation {
			t.Errorf("diff with torn arm: code %d, want %d", code, exitViolation)
		}
	})

	t.Run("snapshot-arm", func(t *testing.T) {
		snap := filepath.Join(dir, "good.parbs-analysis")
		if code, _ := runCapture(t, "report", "-snapshot", snap, good); code != exitOK {
			t.Fatalf("report -snapshot: non-zero exit")
		}
		// diff sniffs the snapshot magic and loads it as the A arm.
		code, out := runCapture(t, "diff", snap, viol)
		if code != exitOK || !strings.Contains(out, "analysis diff: A=PAR-BS") {
			t.Errorf("diff snapshot arm: code %d\n%s", code, out)
		}
	})
}
