package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// testTraceLog is a small hand-sequenced event log: two threads on two
// banks, thread 1's request starved long enough to make it the unambiguous
// bottleneck. Its events set only the fields the JSONL carries, as a
// tracer's do.
func testTraceLog() *trace.Log {
	return &trace.Log{
		Meta: trace.Meta{
			Policy: "PAR-BS", Workload: "stub", Cores: 2, Banks: 2,
			CPUPerDRAM: 10, TotalDRAM: 1000, MarkingCap: 5, ReadBufEntries: 64,
		},
		Events: []trace.Event{
			{Kind: trace.KindArrive, Cycle: 0, Req: 1, Thread: 0, Bank: 0, Row: 7},
			{Kind: trace.KindArrive, Cycle: 10, Req: 2, Thread: 1, Bank: 1, Row: 9},
			{Kind: trace.KindMark, Cycle: 50, Req: 1, Thread: 0},
			{Kind: trace.KindBatch, Cycle: 50, Req: 0, Row: 1},
			{Kind: trace.KindComplete, Cycle: 200, Req: 1, Thread: 0, Row: 200},
			{Kind: trace.KindComplete, Cycle: 900, Req: 2, Thread: 1, Row: 890},
		},
		BatchPerThread: [][]int32{{1, 0}},
	}
}

// jsonlOf renders log as parbs.trace/v1 JSONL.
func jsonlOf(t *testing.T, log *trace.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testTraceJSONL renders testTraceLog.
func testTraceJSONL(t *testing.T) []byte { return jsonlOf(t, testTraceLog()) }

// TestAnalysisEndpoints drives the full HTTP analysis surface: a traced
// run's JSONL is retrievable, analyzable by reference and by direct POST,
// and every rendering (JSON, text, dashboard, snapshot) agrees.
func TestAnalysisEndpoints(t *testing.T) {
	jsonl := testTraceJSONL(t)
	runner := func(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
		res := &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}
		if spec.Trace != nil && spec.Trace.Events {
			res.TraceLog = testTraceLog()
		}
		return res, nil
	}
	sv := New(Options{Workers: 1, Runner: runner})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// A run submitted without trace.events has no trace to serve or analyze.
	plain := testSpec("an", 1)
	plain.Trace = &TraceSpec{}
	_, v := submit(t, ts.URL, plain)
	waitDone(t, ts.URL, v.ID, 5*time.Second)
	if resp, _ := http.Get(ts.URL + "/v1/runs/" + v.ID + "/trace"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of untraced run: status %d, want 404", resp.StatusCode)
	}
	if code := postAnalysisRef(t, ts.URL, v.ID).StatusCode; code != http.StatusConflict {
		t.Errorf("analyze untraced run: status %d, want 409", code)
	}

	// A run with trace.events=true serves its raw JSONL verbatim.
	traced := testSpec("an", 2)
	traced.Trace = &TraceSpec{Events: true}
	_, v = submit(t, ts.URL, traced)
	if done := waitDone(t, ts.URL, v.ID, 5*time.Second); done.Status != StatusDone {
		t.Fatalf("traced run: %s (%s)", done.Status, done.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, jsonl) {
		t.Fatalf("run trace: status %d, %d bytes (want %d)", resp.StatusCode, len(body), len(jsonl))
	}

	// Analyze by run reference.
	resp = postAnalysisRef(t, ts.URL, v.ID)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("analyze by reference: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var created struct {
		Schema string           `json:"schema"`
		ID     string           `json:"id"`
		Report *analysis.Report `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.Schema != analysis.Schema || created.ID == "" {
		t.Fatalf("created view: %+v", created)
	}
	r := created.Report
	if len(r.TopThreads) == 0 || r.TopThreads[0].ID != 1 {
		t.Errorf("top thread = %+v, want the starved t1", r.TopThreads)
	}
	if r.Requests != 2 || len(r.Batches) != 1 {
		t.Errorf("report requests=%d batches=%d, want 2/1", r.Requests, len(r.Batches))
	}

	// Every rendering of the same analysis.
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
	jsonBody := getOK("/v1/analysis/"+created.ID, "application/json")
	var again analysis.Report
	if err := json.Unmarshal(jsonBody, &again); err != nil {
		t.Fatal(err)
	}
	if again.TopThreads[0] != r.TopThreads[0] {
		t.Error("GET JSON report disagrees with the creation response")
	}
	text := string(getOK("/v1/analysis/"+created.ID+"/report", "text/plain"))
	if !strings.Contains(text, "bottleneck attribution") || !strings.Contains(text, "t1") {
		t.Errorf("text report missing attribution:\n%s", text)
	}
	dash := string(getOK("/v1/analysis/"+created.ID+"/dashboard", "text/html"))
	for _, want := range []string{"<svg", "Bottleneck attribution", "t1", "unmarked wait", "heatmap"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	snap := getOK("/v1/analysis/"+created.ID+"/snapshot", "application/octet-stream")
	store, err := analysis.ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("downloaded snapshot unreadable: %v", err)
	}
	if got := store.Analyze(analysis.Options{}); got.TopThreads[0].ID != r.TopThreads[0].ID {
		t.Error("snapshot round trip changed the analysis")
	}

	// Direct JSONL POST, with options in the query string.
	resp, err = http.Post(ts.URL+"/v1/analysis?window_cycles=100&top_k=1",
		"application/x-ndjson", bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("direct POST: status %d", resp.StatusCode)
	}
	if got := created.Report; got.WindowCycles != 100 || len(got.Windows) != 10 || len(got.TopThreads) != 1 {
		t.Errorf("direct POST report: window_cycles=%d windows=%d topK=%d",
			got.WindowCycles, len(got.Windows), len(got.TopThreads))
	}

	// A truncated trace (torn final line) is accepted and flagged, never
	// rejected: analytics must degrade gracefully.
	torn := jsonl[:len(jsonl)-20]
	resp, err = http.Post(ts.URL+"/v1/analysis", "application/x-ndjson", bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !created.Report.Truncated {
		t.Errorf("torn trace: status %d truncated=%v, want 201/true",
			resp.StatusCode, created.Report.Truncated)
	}

	// Error paths: unknown run, unknown analysis, unparseable header.
	if code := postAnalysisRef(t, ts.URL, "r-999999").StatusCode; code != http.StatusNotFound {
		t.Errorf("analyze unknown run: status %d, want 404", code)
	}
	if resp, _ := http.Get(ts.URL + "/v1/analysis/a-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown analysis: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/analysis", "application/x-ndjson",
		strings.NewReader("this is not a trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage trace: status %d, want 400", resp.StatusCode)
	}

	// Counters: 3 successful analyses, 1 ingest failure.
	metrics := fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "parbs_serve_analyses_total"); got != 3 {
		t.Errorf("analyses_total = %d, want 3", got)
	}
	if got := metricValue(t, metrics, "parbs_serve_analysis_errors_total"); got != 1 {
		t.Errorf("analysis_errors_total = %d, want 1", got)
	}
}

func postAnalysisRef(t *testing.T, base, runID string) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"run":%q}`, runID)
	resp, err := http.Post(base+"/v1/analysis", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalysisStoreEviction: the store drops the oldest analyses past the
// analysis cap.
func TestAnalysisStoreEviction(t *testing.T) {
	st := NewStore(0, 0)
	st.maxAnalyses = 2
	add := func() *analysisEntry { return st.addAnalysis(new(analysis.Store), new(analysis.Report)) }
	a, b, c := add(), add(), add()
	if _, ok := st.analysis(a.id); ok {
		t.Errorf("oldest analysis %s survived past the cap", a.id)
	}
	for _, e := range []*analysisEntry{b, c} {
		if _, ok := st.analysis(e.id); !ok {
			t.Errorf("analysis %s evicted prematurely", e.id)
		}
	}
}

// TestJobStoreEviction: past MaxJobs, admitting a job evicts the oldest
// terminal records — in admission order, skipping live jobs — and never
// touches the content-hash result cache.
func TestJobStoreEviction(t *testing.T) {
	st := NewStore(3, 0)
	now := time.Now()
	jobs := make([]*Job, 0, 5)
	for seed := int64(1); seed <= 5; seed++ {
		jobs = append(jobs, st.NewJob(testSpec("ev", seed), now))
		// Jobs 1, 2, 4 complete; 3 and 5 stay live. Eviction triggers on
		// each admission but only terminal jobs may go.
		if seed == 1 || seed == 2 || seed == 4 {
			j := jobs[seed-1]
			j.finish(st.Publish(j, &Result{Report: json.RawMessage(`{}`)}), nil, now)
		}
	}
	// After 5 admissions with cap 3: job 1 was evicted when job 4 arrived
	// (table at 4 > 3, job 1 terminal and oldest), job 2 when job 5 arrived.
	for i, wantAlive := range []bool{false, false, true, true, true} {
		_, ok := st.Get(jobs[i].ID)
		if ok != wantAlive {
			t.Errorf("job %s alive=%v, want %v", jobs[i].ID, ok, wantAlive)
		}
	}
	if st.Jobs() != 3 {
		t.Errorf("store holds %d jobs, want 3", st.Jobs())
	}

	// Live jobs are never evicted, even when that overflows the cap: finish
	// nothing and admit two more.
	j6 := st.NewJob(testSpec("ev", 6), now) // evicts job 4 (terminal)
	j7 := st.NewJob(testSpec("ev", 7), now) // nothing evictable: 3,5,6,7 live
	for _, j := range []*Job{jobs[2], jobs[4], j6, j7} {
		if _, ok := st.Get(j.ID); !ok {
			t.Errorf("live job %s was evicted", j.ID)
		}
	}
	if st.Jobs() != 4 {
		t.Errorf("store holds %d jobs, want 4 (cap exceeded by live jobs)", st.Jobs())
	}

	// The result cache is untouched by job eviction: the evicted job 1's
	// spec still replays.
	if _, ok := st.Cached(jobs[0].Hash); !ok {
		t.Error("cache entry lost with its evicted job")
	}

	// Admitting once more with a terminal job present shrinks back to cap.
	j6.finish(&Result{}, nil, now)
	st.NewJob(testSpec("ev", 8), now)
	if _, ok := st.Get(j6.ID); ok {
		t.Error("terminal job survived the next admission past the cap")
	}
}
