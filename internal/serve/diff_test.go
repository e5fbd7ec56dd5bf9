package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// testTraceLogB is the comparison arm for diff tests: same workload shape
// as testTraceLog but an unbatched FR-FCFS-style run where thread 1
// finishes far sooner.
func testTraceLogB() *trace.Log {
	return &trace.Log{
		Meta: trace.Meta{
			Policy: "FR-FCFS", Workload: "stub", Cores: 2, Banks: 2,
			CPUPerDRAM: 10, TotalDRAM: 1000, ReadBufEntries: 64,
		},
		Events: []trace.Event{
			{Kind: trace.KindArrive, Cycle: 0, Req: 1, Thread: 0, Bank: 0, Row: 7},
			{Kind: trace.KindArrive, Cycle: 10, Req: 2, Thread: 1, Bank: 1, Row: 9},
			{Kind: trace.KindComplete, Cycle: 180, Req: 1, Thread: 0, Row: 160},
			{Kind: trace.KindComplete, Cycle: 400, Req: 2, Thread: 1, Row: 380},
		},
	}
}

// TestDiffEndpoints drives the cross-run diff surface: diff by run IDs, by
// retained analysis ID, by multipart snapshot/trace upload, every rendering,
// and the error paths with their counters.
func TestDiffEndpoints(t *testing.T) {
	jsonlA := testTraceJSONL(t)
	jsonlB := jsonlOf(t, testTraceLogB())
	runner := func(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
		res := &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}
		if spec.Trace != nil && spec.Trace.Events {
			if spec.Client == "db" {
				res.TraceLog = testTraceLogB()
			} else {
				res.TraceLog = testTraceLog()
			}
		}
		return res, nil
	}
	sv := New(Options{Workers: 2, Runner: runner})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	runID := func(client string, seed int64) string {
		spec := testSpec(client, seed)
		spec.Trace = &TraceSpec{Events: true}
		_, v := submit(t, ts.URL, spec)
		if done := waitDone(t, ts.URL, v.ID, 5*time.Second); done.Status != StatusDone {
			t.Fatalf("run %s: %s (%s)", v.ID, done.Status, done.Error)
		}
		return v.ID
	}
	runA := runID("da", 1)
	runB := runID("db", 2)

	postDiff := func(body string) (*http.Response, diffCreatedView) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/analysis/diff", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var created diffCreatedView
		if resp.StatusCode < 400 {
			if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, created
	}

	// Diff by run IDs.
	resp, created := postDiff(fmt.Sprintf(`{"a":%q,"b":%q}`, runA, runB))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("diff by run IDs: status %d", resp.StatusCode)
	}
	if created.Schema != analysis.DiffSchema || !strings.HasPrefix(created.ID, "d-") {
		t.Fatalf("created view: %+v", created)
	}
	d := created.Report
	if d.A.Meta.Policy != "PAR-BS" || d.B.Meta.Policy != "FR-FCFS" {
		t.Fatalf("arm policies: A=%s B=%s", d.A.Meta.Policy, d.B.Meta.Policy)
	}
	if len(d.Threads) != 2 || len(d.Mismatches) != 0 {
		t.Errorf("diff shape: %d threads, mismatches %v", len(d.Threads), d.Mismatches)
	}
	// Thread 1 is starved in A (completes at 900) and prompt in B (400):
	// its wait delta must be strongly negative.
	if d.Threads[1].DWait >= 0 {
		t.Errorf("t1 DWait = %d, want negative (B waits less)", d.Threads[1].DWait)
	}
	if d.Batches.BatchesA != 1 || d.Batches.BatchesB != 0 {
		t.Errorf("batches A=%d B=%d, want 1/0", d.Batches.BatchesA, d.Batches.BatchesB)
	}

	// Every rendering of the retained diff.
	getOK := func(path, wantType string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
			t.Errorf("GET %s: content type %q, want %q", path, ct, wantType)
		}
		return b
	}
	var again analysis.DiffReport
	if err := json.Unmarshal(getOK("/v1/diffs/"+created.ID, "application/json"), &again); err != nil {
		t.Fatal(err)
	}
	if again.Threads[1].DWait != d.Threads[1].DWait {
		t.Error("GET JSON diff disagrees with the creation response")
	}
	text := string(getOK("/v1/diffs/"+created.ID+"/report", "text/plain"))
	for _, want := range []string{"analysis diff: A=PAR-BS  B=FR-FCFS", "deltas are B−A", "unfairness"} {
		if !strings.Contains(text, want) {
			t.Errorf("text diff missing %q:\n%s", want, text)
		}
	}
	dash := string(getOK("/v1/diffs/"+created.ID+"/dashboard", "text/html"))
	for _, want := range []string{"Analysis diff", "<svg", "dLat p99", "Unfairness"} {
		if !strings.Contains(dash, want) {
			t.Errorf("diff dashboard missing %q", want)
		}
	}

	// One arm can be a retained analysis ID.
	aResp := postAnalysisRef(t, ts.URL, runA)
	var aCreated struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(aResp.Body).Decode(&aCreated); err != nil {
		t.Fatal(err)
	}
	aResp.Body.Close()
	if resp, c := postDiff(fmt.Sprintf(`{"a":%q,"b":%q}`, aCreated.ID, runB)); resp.StatusCode != http.StatusCreated ||
		c.Report.A.Meta.Policy != "PAR-BS" {
		t.Errorf("diff by analysis ID: status %d", resp.StatusCode)
	}

	// Multipart upload: arm a as a binary snapshot, arm b as raw JSONL.
	storeA, err := analysis.Ingest(bytes.NewReader(jsonlA))
	if err != nil {
		t.Fatal(err)
	}
	var snapA bytes.Buffer
	if err := storeA.WriteSnapshot(&snapA); err != nil {
		t.Fatal(err)
	}
	var mp bytes.Buffer
	mw := multipart.NewWriter(&mp)
	fw, _ := mw.CreateFormFile("a", "a.parbs-analysis")
	fw.Write(snapA.Bytes())
	fw, _ = mw.CreateFormFile("b", "b.jsonl")
	fw.Write(jsonlB)
	mw.Close()
	resp, err = http.Post(ts.URL+"/v1/analysis/diff?window_cycles=100", mw.FormDataContentType(), &mp)
	if err != nil {
		t.Fatal(err)
	}
	var mpCreated diffCreatedView
	if err := json.NewDecoder(resp.Body).Decode(&mpCreated); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || mpCreated.Report.WindowCycles != 100 {
		t.Errorf("multipart diff: status %d window %d, want 201/100",
			resp.StatusCode, mpCreated.Report.WindowCycles)
	}

	// Error paths.
	if resp, _ := postDiff(fmt.Sprintf(`{"a":"r-999999","b":%q}`, runB)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown arm: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postDiff(fmt.Sprintf(`{"a":%q}`, runA)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing arm: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/diffs/d-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown diff: status %d, want 404", resp.StatusCode)
	}

	// Counters reconcile: 3 diffs computed, 2 failed submissions.
	metrics := fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "parbs_serve_analysis_diffs_total"); got != 3 {
		t.Errorf("analysis_diffs_total = %d, want 3", got)
	}
	if got := metricValue(t, metrics, "parbs_serve_analysis_diff_errors_total"); got != 2 {
		t.Errorf("analysis_diff_errors_total = %d, want 2", got)
	}
}

// TestDiffStoreEviction: the bounded diff store drops oldest entries.
func TestDiffStoreEviction(t *testing.T) {
	ds := newDiffStore(2)
	a := ds.add(nil)
	b := ds.add(nil)
	c := ds.add(nil)
	if _, ok := ds.get(a.id); ok {
		t.Errorf("oldest diff %s survived past the cap", a.id)
	}
	for _, e := range []*diffEntry{b, c} {
		if _, ok := ds.get(e.id); !ok {
			t.Errorf("diff %s evicted prematurely", e.id)
		}
	}
}
