package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses an SSE stream to EOF.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		case line == "":
			if cur.name != "" || cur.data != "" {
				evs = append(evs, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan SSE: %v", err)
	}
	return evs
}

func lastByName(evs []sseEvent, name string) (sseEvent, int) {
	idx := -1
	var found sseEvent
	for i, e := range evs {
		if e.name == name {
			found, idx = e, i
		}
	}
	return found, idx
}

// logPrefix is the prefix of log's first n events, as a recording tracer
// would publish it.
func logPrefix(log *trace.Log, n int) *trace.Log {
	p := *log
	p.Events = log.Events[:n]
	batches := 0
	for _, ev := range p.Events {
		if ev.Kind == trace.KindBatch {
			batches++
		}
	}
	p.BatchPerThread = log.BatchPerThread[:batches]
	return &p
}

// TestLiveAnalysisConvergence: following a running job's event log over SSE
// yields a final report byte-identical to the post-hoc analysis of the
// completed trace — the live pipeline's central consistency guarantee.
func TestLiveAnalysisConvergence(t *testing.T) {
	log := testTraceLog()
	jsonl := jsonlOf(t, log)
	release := make(chan struct{})
	runner := func(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
		res := &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}
		if spec.Trace == nil || !spec.Trace.Events {
			return res, nil
		}
		// Publish the empty prefix immediately, hold the rest until the
		// follower attaches, then grow it one event at a time.
		sink.TraceLog(logPrefix(log, 0))
		<-release
		for n := 1; n <= len(log.Events); n++ {
			sink.TraceLog(logPrefix(log, n))
		}
		res.TraceLog = log
		return res, nil
	}
	sv := New(Options{Workers: 1, Runner: runner})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// Live on a run without trace events is a 409, not a hang.
	plain := testSpec("lv", 1)
	_, pv := submit(t, ts.URL, plain)
	if resp, _ := http.Get(ts.URL + "/v1/analysis/" + pv.ID + "/live"); resp.StatusCode != http.StatusConflict {
		t.Errorf("live on untraced run: status %d, want 409", resp.StatusCode)
	}

	traced := testSpec("lv", 2)
	traced.Trace = &TraceSpec{Events: true}
	code, v := submit(t, ts.URL, traced)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/analysis/" + v.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(release)
	evs := readSSE(t, resp.Body)
	resp.Body.Close()

	postHoc, err := analysis.Ingest(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(postHoc.Analyze(analysis.Options{}))
	if err != nil {
		t.Fatal(err)
	}

	final, finalIdx := lastByName(evs, "report")
	if finalIdx < 0 {
		t.Fatalf("no report events in stream: %+v", evs)
	}
	if final.data != string(want) {
		t.Errorf("live final report diverged from post-hoc analysis:\nlive:     %s\npost-hoc: %s", final.data, want)
	}
	done, doneIdx := lastByName(evs, "done")
	if doneIdx != len(evs)-1 || doneIdx < finalIdx {
		t.Fatalf("stream did not end with done after the final report: %+v", evs)
	}
	var doneView struct {
		Events    int  `json:"events"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal([]byte(done.data), &doneView); err != nil {
		t.Fatal(err)
	}
	if doneView.Events != 6 || doneView.Truncated {
		t.Errorf("done event = %+v, want 6 events, not truncated", doneView)
	}

	// A live session against the already-completed run converges instantly:
	// one report (identical) and done.
	waitDone(t, ts.URL, v.ID, 5*time.Second)
	resp, err = http.Get(ts.URL + "/v1/analysis/" + v.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	evs = readSSE(t, resp.Body)
	resp.Body.Close()
	if final, idx := lastByName(evs, "report"); idx < 0 || final.data != string(want) {
		t.Errorf("completed-run live report diverged:\n%+v", evs)
	}

	// The live gauge returns to zero once sessions end; the ingest counter
	// saw each session's events (two full passes over the 6-event trace).
	metrics := fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "parbs_serve_live_analysis_sessions"); got != 0 {
		t.Errorf("live_analysis_sessions = %d, want 0 after streams closed", got)
	}
	if got := metricValue(t, metrics, "parbs_serve_analysis_ingest_events_total"); got < 12 {
		t.Errorf("analysis_ingest_events_total = %d, want >= 12", got)
	}
}

// TestLiveDashboard: the live dashboard auto-refreshes while the run is in
// flight and renders the full percentile-bearing view once it completes.
func TestLiveDashboard(t *testing.T) {
	log := testTraceLog()
	release := make(chan struct{})
	runner := func(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
		res := &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}
		if spec.Trace == nil || !spec.Trace.Events {
			return res, nil
		}
		sink.TraceLog(logPrefix(log, 1))
		<-release
		res.TraceLog = log
		return res, nil
	}
	sv := New(Options{Workers: 1, Runner: runner})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	traced := testSpec("ld", 1)
	traced.Trace = &TraceSpec{Events: true}
	_, v := submit(t, ts.URL, traced)

	// Poll until the mid-run dashboard has ingested the header: it must
	// carry the refresh tag and the live banner.
	var mid string
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/analysis/" + v.ID + "/live/dashboard")
		if err != nil {
			t.Fatal(err)
		}
		mid = string(readBody(t, resp))
		if strings.Contains(mid, "Trace analysis") || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !strings.Contains(mid, `http-equiv="refresh"`) {
		t.Errorf("mid-run dashboard missing refresh tag:\n%s", mid)
	}
	if !strings.Contains(mid, "Live view") {
		t.Errorf("mid-run dashboard missing live banner")
	}

	close(release)
	waitDone(t, ts.URL, v.ID, 5*time.Second)
	resp, err := http.Get(ts.URL + "/v1/analysis/" + v.ID + "/live/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	final := string(readBody(t, resp))
	if strings.Contains(final, `http-equiv="refresh"`) {
		t.Error("completed-run dashboard still refreshes")
	}
	for _, want := range []string{"Latency percentiles", "lat p99", "<svg"} {
		if !strings.Contains(final, want) {
			t.Errorf("completed dashboard missing %q", want)
		}
	}
}
