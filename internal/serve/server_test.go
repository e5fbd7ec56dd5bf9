package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	parbs "repro"
)

// stubRunner is a controllable Runner: every call blocks until gate closes
// (letting tests fill the queue deterministically while worker 1 is busy),
// then takes delay of wall time. It records per-client call counts.
type stubRunner struct {
	mu    sync.Mutex
	calls map[string]int
	gate  chan struct{}
	delay time.Duration
}

func newStubRunner(delay time.Duration) *stubRunner {
	return &stubRunner{calls: map[string]int{}, gate: make(chan struct{}), delay: delay}
}

func (sr *stubRunner) run(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
	<-sr.gate
	sr.mu.Lock()
	sr.calls[spec.Client]++
	sr.mu.Unlock()
	select {
	case <-time.After(sr.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}, nil
}

func (sr *stubRunner) total() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := 0
	for _, c := range sr.calls {
		n += c
	}
	return n
}

// submit POSTs a spec and returns the HTTP status and decoded view.
func submit(t *testing.T, base string, spec Spec) (int, jobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decode response (%d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, v
}

func getRun(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", id, resp.StatusCode)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitDone polls a run until it reaches a terminal state.
func waitDone(t *testing.T, base, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getRun(t, base, id)
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricValue extracts one sample value from Prometheus exposition text.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%d", &v); err != nil {
				t.Fatalf("parse metric %s from %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s absent from:\n%s", name, body)
	return 0
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// floodAndSparse submits 12 expensive flood jobs then 2 cheap sparse jobs
// from two client goroutines (flood first, so the sparse client arrives
// into an already-flooded queue), waits for completion, and returns the
// sparse client's worst dispatch sequence and worst wait.
func floodAndSparse(t *testing.T, sv *Server, sr *stubRunner) (worstSeq int64, worstWait time.Duration) {
	t.Helper()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var ids []string
	var mu sync.Mutex
	floodDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(floodDone)
		for seed := int64(1); seed <= 12; seed++ {
			spec := testSpec("flood", seed)
			spec.System.MeasureCycles = 1_000_000
			code, v := submit(t, ts.URL, spec)
			if code != http.StatusAccepted {
				t.Errorf("flood submit: status %d", code)
			}
			mu.Lock()
			ids = append(ids, v.ID)
			mu.Unlock()
		}
	}()
	sparseIDs := make([]string, 0, 2)
	go func() {
		defer wg.Done()
		<-floodDone
		for seed := int64(1); seed <= 2; seed++ {
			spec := testSpec("sparse", seed)
			spec.System.MeasureCycles = 100_000
			code, v := submit(t, ts.URL, spec)
			if code != http.StatusAccepted {
				t.Errorf("sparse submit: status %d", code)
			}
			mu.Lock()
			ids = append(ids, v.ID)
			sparseIDs = append(sparseIDs, v.ID)
			mu.Unlock()
		}
	}()
	wg.Wait()
	close(sr.gate) // all 14 jobs are admitted; let the worker run
	for _, id := range ids {
		if v := waitDone(t, ts.URL, id, 10*time.Second); v.Status != StatusDone {
			t.Fatalf("job %s finished %s: %s", id, v.Status, v.Error)
		}
	}
	for _, id := range sparseIDs {
		v := getRun(t, ts.URL, id)
		if v.DispatchSeq > worstSeq {
			worstSeq = v.DispatchSeq
		}
		if w := time.Duration(v.WaitMS) * time.Millisecond; w > worstWait {
			worstWait = w
		}
	}
	return worstSeq, worstWait
}

// TestEndToEndBatchAdmissionVsFIFO is the acceptance e2e: a flooding and a
// sparse client submit concurrently against a FIFO server and a PAR-BS
// server; batched admission must bound the sparse client's worst-case wait
// below the FIFO baseline. Then, on the PAR-BS server: an identical
// resubmission replays from the result cache without a new simulation,
// graceful shutdown completes every accepted job, and the /metrics counters
// reconcile with the number of submitted jobs.
func TestEndToEndBatchAdmissionVsFIFO(t *testing.T) {
	const delay = 10 * time.Millisecond

	fifoStub := newStubRunner(delay)
	fifoSrv := New(Options{Workers: 1, QueueCap: 100, Admission: AdmissionFIFO, Runner: fifoStub.run})
	fifoSeq, fifoWait := floodAndSparse(t, fifoSrv, fifoStub)
	if err := fifoSrv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	parbsStub := newStubRunner(delay)
	parbsSrv := New(Options{Workers: 1, QueueCap: 100, Admission: AdmissionPARBS, MarkingCap: 2, Runner: parbsStub.run})
	parbsSeq, parbsWait := floodAndSparse(t, parbsSrv, parbsStub)

	// FIFO dispatches the sparse client behind the whole flood (seq 13-14);
	// batched Max–Total admission pulls it into the next batch (seq ~3).
	if fifoSeq != 14 {
		t.Errorf("FIFO worst sparse dispatch seq = %d, want 14 (behind the 12-job flood)", fifoSeq)
	}
	if parbsSeq >= fifoSeq {
		t.Errorf("batched admission dispatch seq %d !< FIFO %d", parbsSeq, fifoSeq)
	}
	if parbsSeq > 5 {
		t.Errorf("batched admission dispatched sparse at seq %d; marking cap 2 bounds it to the second batch", parbsSeq)
	}
	if parbsWait >= fifoWait {
		t.Errorf("batched admission worst sparse wait %v !< FIFO %v", parbsWait, fifoWait)
	}
	t.Logf("worst sparse: FIFO seq %d wait %v; PAR-BS seq %d wait %v", fifoSeq, fifoWait, parbsSeq, parbsWait)

	// --- Cached replay on the PAR-BS server ---
	ts := httptest.NewServer(parbsSrv.Handler())
	defer ts.Close()
	before := parbsStub.total()
	replay := testSpec("flood", 1)
	replay.System.MeasureCycles = 1_000_000
	code, v := submit(t, ts.URL, replay)
	if code != http.StatusOK {
		t.Fatalf("cached resubmission: status %d, want 200", code)
	}
	if !v.Cached || v.Status != StatusDone || len(v.Report) == 0 {
		t.Fatalf("cached resubmission view = %+v", v)
	}
	if after := parbsStub.total(); after != before {
		t.Errorf("cached resubmission ran a new simulation (%d -> %d calls)", before, after)
	}

	// --- Graceful shutdown completes all accepted jobs ---
	var lateIDs []string
	for seed := int64(100); seed < 103; seed++ {
		code, v := submit(t, ts.URL, testSpec("late", seed))
		if code != http.StatusAccepted {
			t.Fatalf("late submit: status %d", code)
		}
		lateIDs = append(lateIDs, v.ID)
	}
	if err := parbsSrv.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, id := range lateIDs {
		if v := getRun(t, ts.URL, id); v.Status != StatusDone {
			t.Errorf("accepted job %s not completed by graceful shutdown: %s", id, v.Status)
		}
	}
	// Draining: new submissions refused, health degraded.
	if code, _ := submit(t, ts.URL, testSpec("late", 200)); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: status %d, want 503", code)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining healthz: status %d, want 503", resp.StatusCode)
		}
	}

	// --- Metrics reconcile with the submissions above ---
	// 14 flood+sparse + 1 cached replay + 3 late = 18 accepted, all
	// completed, none failed or rejected; 17 simulations ran.
	body := fetchMetrics(t, ts.URL)
	checks := map[string]int64{
		"parbs_serve_jobs_accepted_total":  18,
		"parbs_serve_jobs_completed_total": 18,
		"parbs_serve_jobs_failed_total":    0,
		"parbs_serve_jobs_rejected_total":  0,
		"parbs_serve_cache_hits_total":     1,
		"parbs_serve_queue_depth":          0,
	}
	for name, want := range checks {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := metricValue(t, body, "parbs_serve_batches_formed_total"); got < 2 {
		t.Errorf("batches_formed_total = %d, want >= 2", got)
	}
	if parbsStub.total() != 17 {
		t.Errorf("stub ran %d simulations, want 17 (18 accepted - 1 cache hit)", parbsStub.total())
	}
	if !strings.Contains(body, `parbs_serve_wait_ms_count{client="sparse"}`) {
		t.Error("per-client wait histogram missing the sparse client")
	}
	// 17 simulations executed (the cached replay never dispatched), all
	// under the PAR-BS policy, so the run-duration histogram carries them.
	if got := metricValue(t, body, `parbs_serve_run_duration_ms_count{policy="PAR-BS"}`); got != 17 {
		t.Errorf("run_duration count = %d, want 17", got)
	}
	// Every formed admission batch eventually drains once the queue empties.
	if got := metricValue(t, body, "parbs_serve_admission_batch_duration_ms_count"); got < 2 {
		t.Errorf("admission batch duration count = %d, want >= 2", got)
	}
	if !strings.Contains(body, `parbs_build_info{version=`) {
		t.Error("build info gauge missing")
	}
	if !strings.Contains(body, "parbs_serve_uptime_seconds ") {
		t.Error("uptime counter missing")
	}
}

// TestTraceArtifactFlowsThrough: a spec requesting a trace gets the
// runner's Chrome trace artifact embedded in the terminal job view, a spec
// without one does not, and the two hash to different cache keys.
func TestTraceArtifactFlowsThrough(t *testing.T) {
	runner := func(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
		res := &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}
		if spec.Trace != nil {
			res.Trace = json.RawMessage(`{"traceEvents":[]}`)
		}
		return res, nil
	}
	sv := New(Options{Workers: 1, Runner: runner})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	plain := testSpec("tracer", 1)
	traced := testSpec("tracer", 1)
	traced.Trace = &TraceSpec{MaxEvents: 1 << 10}
	if plain.hash() == traced.hash() {
		t.Error("trace spec does not contribute to the content hash")
	}

	code, v := submit(t, ts.URL, traced)
	if code != http.StatusAccepted {
		t.Fatalf("submit traced: status %d", code)
	}
	done := waitDone(t, ts.URL, v.ID, 5*time.Second)
	if done.Status != StatusDone {
		t.Fatalf("traced job: %s (%s)", done.Status, done.Error)
	}
	if len(done.Trace) == 0 || !json.Valid(done.Trace) {
		t.Errorf("traced job view carries no valid trace artifact: %q", done.Trace)
	}

	code, v = submit(t, ts.URL, plain)
	if code != http.StatusAccepted {
		t.Fatalf("submit plain: status %d", code)
	}
	if done := waitDone(t, ts.URL, v.ID, 5*time.Second); len(done.Trace) != 0 {
		t.Errorf("untraced job view carries a trace artifact: %q", done.Trace)
	}
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueBackpressure429: beyond QueueCap the server rejects with 429 and
// counts the rejection; the accepted jobs still drain.
func TestQueueBackpressure429(t *testing.T) {
	sr := newStubRunner(time.Millisecond)
	sv := New(Options{Workers: 1, QueueCap: 2, Runner: sr.run})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var ids []string
	// Job 1 dispatches (blocks on the gate), jobs 2-3 fill the queue.
	for seed := int64(1); seed <= 3; seed++ {
		code, v := submit(t, ts.URL, testSpec("c", seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", seed, code)
		}
		ids = append(ids, v.ID)
		// Job 1 must leave the queue before jobs 2-3 arrive, or job 3
		// finds it full.
		for deadline := time.Now().Add(5 * time.Second); seed == 1 && getRun(t, ts.URL, v.ID).Status == StatusQueued; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never dispatched", v.ID)
			}
		}
	}
	if code, _ := submit(t, ts.URL, testSpec("c", 4)); code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", code)
	}
	close(sr.gate)
	for _, id := range ids {
		if v := waitDone(t, ts.URL, id, 5*time.Second); v.Status != StatusDone {
			t.Errorf("job %s: %s", id, v.Status)
		}
	}
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := fetchMetrics(t, ts.URL)
	if got := metricValue(t, body, "parbs_serve_jobs_rejected_total"); got != 1 {
		t.Errorf("rejected_total = %d, want 1", got)
	}
}

// TestJobPanicIsIsolated: a panicking job fails cleanly; the worker and
// the server survive and keep serving.
func TestJobPanicIsIsolated(t *testing.T) {
	calls := 0
	sv := New(Options{Workers: 1, Runner: func(ctx context.Context, spec Spec, _ Sink) (*Result, error) {
		calls++
		if calls == 1 {
			panic("poisoned job")
		}
		return &Result{Report: json.RawMessage(`{}`)}, nil
	}})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	_, bad := submit(t, ts.URL, testSpec("a", 1))
	if v := waitDone(t, ts.URL, bad.ID, 5*time.Second); v.Status != StatusFailed || !strings.Contains(v.Error, "panicked") {
		t.Errorf("panicked job view: status %s error %q", v.Status, v.Error)
	}
	_, good := submit(t, ts.URL, testSpec("a", 2))
	if v := waitDone(t, ts.URL, good.ID, 5*time.Second); v.Status != StatusDone {
		t.Errorf("post-panic job: %s (%s)", v.Status, v.Error)
	}
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := fetchMetrics(t, ts.URL)
	if metricValue(t, body, "parbs_serve_jobs_failed_total") != 1 ||
		metricValue(t, body, "parbs_serve_jobs_completed_total") != 1 {
		t.Errorf("metrics after panic:\n%s", body)
	}
}

// TestJobDeadline: timeout_ms is enforced through context cancellation.
func TestJobDeadline(t *testing.T) {
	sv := New(Options{Workers: 1, Runner: func(ctx context.Context, spec Spec, _ Sink) (*Result, error) {
		<-ctx.Done() // a run that never finishes on its own
		return nil, ctx.Err()
	}})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	spec := testSpec("a", 1)
	spec.TimeoutMS = 25
	_, v := submit(t, ts.URL, spec)
	got := waitDone(t, ts.URL, v.ID, 5*time.Second)
	if got.Status != StatusFailed || !strings.Contains(got.Error, "deadline") {
		t.Errorf("deadline job: status %s error %q", got.Status, got.Error)
	}
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDeadlineHardAborts: when the drain deadline expires, stuck
// jobs are aborted through context cancellation and Shutdown returns the
// context error instead of hanging.
func TestShutdownDeadlineHardAborts(t *testing.T) {
	sv := New(Options{Workers: 1, Runner: func(ctx context.Context, spec Spec, _ Sink) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	_, v := submit(t, ts.URL, testSpec("a", 1))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := sv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown returned %v, want DeadlineExceeded", err)
	}
	if got := getRun(t, ts.URL, v.ID); got.Status != StatusFailed {
		t.Errorf("hard-aborted job status %s, want failed", got.Status)
	}
}

// TestSSEProgressStream: the events endpoint streams progress heartbeats
// and ends with a done event carrying the terminal view.
func TestSSEProgressStream(t *testing.T) {
	// seen closes once the subscriber has read a progress event. Heartbeats
	// sent before the subscription are not replayed, so the job keeps
	// beating until then and only finishes after it.
	seen := make(chan struct{})
	sv := New(Options{Workers: 1, Runner: func(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			sink.Progress(parbs.Progress{Phase: "warmup", CPUCycles: 10, TotalCPUCycles: 100})
			select {
			case <-seen:
				return &Result{Report: json.RawMessage(`{}`)}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-tick.C:
			}
		}
	}})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	_, v := submit(t, ts.URL, testSpec("a", 1))
	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := map[string]int{}
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
			events[event]++
			lastData = ""
		case strings.HasPrefix(line, "data: "):
			lastData = line[len("data: "):]
			if event == "progress" && events["progress"] == 1 {
				close(seen)
			}
		}
		if event == "done" && lastData != "" {
			break
		}
	}
	if events["progress"] == 0 {
		t.Error("no progress events before done")
	}
	if events["done"] != 1 {
		t.Fatalf("events seen: %v, want exactly one done", events)
	}
	var final jobView
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatalf("done payload %q: %v", lastData, err)
	}
	if final.Status != StatusDone || final.ID != v.ID {
		t.Errorf("done view = %+v", final)
	}
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSimulationServerEndToEnd drives the real SimulationRunner through
// HTTP: a small PAR-BS run with telemetry completes, embeds a versioned
// telemetry report, streams real progress over SSE, and replays from cache.
func TestSimulationServerEndToEnd(t *testing.T) {
	sv := New(Options{Workers: 2})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	spec := testSpec("e2e", 1)
	spec.Telemetry = &TelemetrySpec{EpochCycles: 10_240}
	code, v := submit(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitDone(t, ts.URL, v.ID, 120*time.Second)
	if done.Status != StatusDone {
		t.Fatalf("simulation failed: %s", done.Error)
	}
	var rep struct {
		Scheduler  string  `json:"scheduler"`
		Unfairness float64 `json:"unfairness"`
		Threads    []struct {
			Benchmark   string  `json:"benchmark"`
			MemSlowdown float64 `json:"mem_slowdown"`
		} `json:"threads"`
	}
	if err := json.Unmarshal(done.Report, &rep); err != nil {
		t.Fatalf("report payload: %v", err)
	}
	if rep.Scheduler != "PAR-BS" || len(rep.Threads) != 4 || rep.Unfairness <= 0 {
		t.Errorf("report = %+v", rep)
	}
	var tel struct {
		Schema string `json:"schema"`
		Epochs int    `json:"epochs"`
	}
	if err := json.Unmarshal(done.Telemetry, &tel); err != nil {
		t.Fatalf("telemetry payload: %v", err)
	}
	if tel.Schema != parbs.TelemetrySchema || tel.Epochs == 0 {
		t.Errorf("telemetry = %+v", tel)
	}

	// Identical resubmission replays instantly from the content-hash cache.
	code, replay := submit(t, ts.URL, spec)
	if code != http.StatusOK || !replay.Cached || replay.Status != StatusDone {
		t.Errorf("replay: code %d view %+v", code, replay)
	}
	if !bytes.Equal(replay.Report, done.Report) {
		t.Error("cached report differs from the original")
	}
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
