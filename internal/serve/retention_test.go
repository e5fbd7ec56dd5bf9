package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// paddedTraceRunner returns a Runner whose traced results carry a fresh
// stored log of about pad bytes: the test log's events in an event buffer
// of pad bytes' capacity. It publishes the same log as the live prefix, and
// counts its calls.
func paddedTraceRunner(pad int, calls *atomic.Int64) Runner {
	return func(_ context.Context, spec Spec, sink Sink) (*Result, error) {
		calls.Add(1)
		log := testTraceLog()
		log.Events = append(make([]trace.Event, 0, pad/int(unsafe.Sizeof(trace.Event{}))), log.Events...)
		if sink.TraceLog != nil {
			sink.TraceLog(log)
		}
		return &Result{Report: json.RawMessage(`{"scheduler":"stub"}`), TraceLog: log}, nil
	}
}

// tracedSpec is a distinct traced spec per seed.
func tracedSpec(seed int64) Spec {
	sp := testSpec("ret", seed)
	sp.Trace = &TraceSpec{Events: true}
	return sp
}

// status issues one request through h and returns its status code.
func status(h http.Handler, method, path string, body []byte) int {
	return serveRecorded(h, method, path, body).Code
}

// payloadStatuses are the codes of a run's payload endpoints: the view,
// the stored trace, analysis by run, the SSE stream and live analysis.
func payloadStatuses(h http.Handler, id string) [5]int {
	return [5]int{
		status(h, "GET", "/v1/runs/"+id, nil),
		status(h, "GET", "/v1/runs/"+id+"/trace", nil),
		serveJSON(h, "/v1/analysis", `{"run":"`+id+`"}`),
		status(h, "GET", "/v1/runs/"+id+"/events", nil),
		status(h, "GET", "/v1/analysis/"+id+"/live", nil),
	}
}

func serveJSON(h http.Handler, path, body string) int {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestRetentionBudget: 50 distinct traced jobs with 4 MiB payloads under a
// 16 MiB budget keep the live heap under budget plus slack. The oldest
// jobs keep their records but answer 410 on every payload endpoint, the
// newest still serve, the live buffers are released, and /metrics agrees
// with what is retained.
func TestRetentionBudget(t *testing.T) {
	const (
		budget = 16 << 20
		pad    = 4 << 20
		jobs   = 50
		slack  = 8 << 20
	)
	var calls atomic.Int64
	sv := New(Options{Workers: 1, MaxResultBytes: budget, Runner: paddedTraceRunner(pad, &calls)})
	defer sv.Shutdown(context.Background())
	h := sv.Handler()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var ran []*Job
	for seed := int64(1); seed <= jobs; seed++ {
		j, _ := submitRecorded(t, sv, tracedSpec(seed), http.StatusAccepted)
		ran = append(ran, j)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > budget+slack {
		t.Errorf("live heap grew %d MiB over %d jobs, want under the %d MiB budget + %d MiB",
			grew>>20, jobs, budget>>20, slack>>20)
	}

	size := ran[jobs-1].snapshot().Result.size()
	kept := budget / size
	for i, j := range ran {
		got := payloadStatuses(h, j.ID)
		want := [5]int{http.StatusGone, http.StatusGone, http.StatusGone, http.StatusGone, http.StatusGone}
		if i >= jobs-int(kept) {
			want = [5]int{http.StatusOK, http.StatusOK, http.StatusCreated, http.StatusOK, http.StatusOK}
		}
		if got != want {
			t.Errorf("job %d of %d: view, trace, analysis, events, live answer %v, want %v", i+1, jobs, got, want)
		}
		if snap := j.snapshot(); snap.Status != StatusDone {
			t.Errorf("job %s lost its status: %s", j.ID, snap.Status)
		}
		if log, closed, _ := j.live.next(); log != nil || !closed {
			t.Errorf("job %s still holds a live prefix after finishing", j.ID)
		}
	}

	// An evicted job's record is still served, marked, without artifacts.
	var v jobView
	rec := serveRecorded(h, "GET", "/v1/runs/"+ran[0].ID, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || !v.Evicted || v.Report != nil {
		t.Errorf("evicted view: status %s evicted %v report %s", v.Status, v.Evicted, v.Report)
	}

	// The kept jobs' analyses above are retained too, under the same budget.
	var analyzed int64
	sv.store.mu.Lock()
	for _, e := range sv.store.analyses {
		analyzed += e.size
	}
	analyses := len(sv.store.analyses)
	sv.store.mu.Unlock()
	if analyses != int(kept) || analyzed <= 0 {
		t.Errorf("%d analyses retained, charged %d bytes; want %d with a positive charge", analyses, analyzed, kept)
	}
	metrics := string(serveRecorded(h, "GET", "/metrics", nil).Body.Bytes())
	if got := metricValue(t, metrics, "parbs_serve_retained_result_bytes"); got != kept*size+analyzed {
		t.Errorf("retained_result_bytes = %d, want %d (%d results of %d bytes and %d of analyses)", got, kept*size+analyzed, kept, size, analyzed)
	}
	if got := metricValue(t, metrics, "parbs_serve_results_evicted_total"); got != jobs-kept {
		t.Errorf("results_evicted_total = %d, want %d", got, jobs-kept)
	}
}

// TestRetentionLRUAndReplay: eviction follows use, not age; a cache-hit
// replay shares its payload's single charge and is evicted with it; and a
// resubmission after eviction runs again instead of replaying.
func TestRetentionLRUAndReplay(t *testing.T) {
	const pad = 1 << 20
	var calls atomic.Int64
	// Room for two payloads, not three.
	sv := New(Options{Workers: 1, MaxResultBytes: 5 * pad / 2, Runner: paddedTraceRunner(pad, &calls)})
	defer sv.Shutdown(context.Background())
	h := sv.Handler()
	get := func(j *Job) int { return status(h, "GET", "/v1/runs/"+j.ID, nil) }

	a, _ := submitRecorded(t, sv, tracedSpec(1), http.StatusAccepted)
	b, _ := submitRecorded(t, sv, tracedSpec(2), http.StatusAccepted)
	if get(a) != http.StatusOK { // a is now the most recently used
		t.Fatal("a evicted with room for it")
	}
	c, _ := submitRecorded(t, sv, tracedSpec(3), http.StatusAccepted)
	if get(b) != http.StatusGone || get(a) != http.StatusOK || get(c) != http.StatusOK {
		t.Fatalf("after c: a %d b %d c %d, want the least recently used b evicted", get(a), get(b), get(c))
	}

	// Replaying a shares its payload: one charge, and a is used again.
	bytesBefore, _ := sv.store.Retention()
	replay, body := submitRecorded(t, sv, tracedSpec(1), http.StatusOK)
	if !bytes.Contains(body, []byte(`"cached": true`)) {
		t.Fatalf("resubmission of a retained spec was not a replay: %s", body)
	}
	if bytesAfter, _ := sv.store.Retention(); bytesAfter != bytesBefore {
		t.Errorf("replay changed retained bytes %d -> %d; a shared payload is charged once", bytesBefore, bytesAfter)
	}
	d, _ := submitRecorded(t, sv, tracedSpec(4), http.StatusAccepted)
	if get(c) != http.StatusGone || get(a) != http.StatusOK || get(replay) != http.StatusOK || get(d) != http.StatusOK {
		t.Fatalf("after d: a %d replay %d c %d d %d, want c evicted", get(a), get(replay), get(c), get(d))
	}

	// Two more distinct jobs push a out; the replay goes with it.
	submitRecorded(t, sv, tracedSpec(5), http.StatusAccepted)
	submitRecorded(t, sv, tracedSpec(6), http.StatusAccepted)
	if get(a) != http.StatusGone || get(replay) != http.StatusGone {
		t.Fatalf("a %d replay %d, want both evicted with their shared payload", get(a), get(replay))
	}
	runs := calls.Load()
	again, body := submitRecorded(t, sv, tracedSpec(1), http.StatusAccepted)
	if bytes.Contains(body, []byte(`"cached": true`)) || calls.Load() != runs+1 || get(again) != http.StatusOK {
		t.Errorf("resubmission after eviction: cached response %s, %d new runs", body, calls.Load()-runs)
	}
}

// TestRetentionIdenticalRunsShareOneCharge: two identical specs running at
// once both finish, and the second shares the first's payload rather than
// charging a second copy.
func TestRetentionIdenticalRunsShareOneCharge(t *testing.T) {
	gate := make(chan struct{})
	sv := New(Options{Workers: 2, Runner: func(context.Context, Spec, Sink) (*Result, error) {
		<-gate
		return &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}, nil
	}})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	_, v1 := submit(t, ts.URL, testSpec("x", 1))
	_, v2 := submit(t, ts.URL, testSpec("y", 1))
	close(gate)
	waitDone(t, ts.URL, v1.ID, 5*time.Second)
	waitDone(t, ts.URL, v2.ID, 5*time.Second)
	j1, _ := sv.store.Get(v1.ID)
	j2, _ := sv.store.Get(v2.ID)
	if j1.snapshot().Result != j2.snapshot().Result {
		t.Error("identical runs hold separate payloads")
	}
	if got, _ := sv.store.Retention(); got != int64(len(`{"scheduler":"stub"}`)) {
		t.Errorf("retained %d bytes, want one charge", got)
	}
}

// nextSSE reads one event from an SSE stream.
func nextSSE(r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		case line == "" && ev.name != "":
			return ev, nil
		}
	}
}

// TestLiveBufferRelease: a /live follower attached mid-run reads the
// prefix and, once the job finishes, the rest from the stored log; its
// final report equals the post-hoc analysis. The finished job's live state
// then holds no prefix, and a follower attached afterwards gets the same
// report from the stored log. A failed job has no stored log: it keeps its
// last prefix and still serves it to followers.
func TestLiveBufferRelease(t *testing.T) {
	log := testTraceLog()
	release := make(chan struct{})
	sv := New(Options{Workers: 1, Runner: func(_ context.Context, spec Spec, sink Sink) (*Result, error) {
		sink.TraceLog(logPrefix(log, 2))
		<-release
		// The rest arrives at once and the job finishes straight after:
		// the follower is still behind when the stream closes.
		sink.TraceLog(log)
		if spec.Scheduler.Name == "FCFS" {
			return nil, errors.New("stub failure")
		}
		return &Result{Report: json.RawMessage(`{"scheduler":"stub"}`), TraceLog: log.Clone()}, nil
	}})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	post, err := analysis.Ingest(bytes.NewReader(jsonlOf(t, log)))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(post.Analyze(analysis.Options{}))
	finalReport := func(id string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/analysis/" + id + "/live")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		final, _ := lastByName(readSSE(t, resp.Body), "report")
		return final.data
	}

	spec := testSpec("lb", 1)
	spec.Trace = &TraceSpec{Events: true}
	_, v := submit(t, ts.URL, spec)
	j, _ := sv.store.Get(v.ID)
	resp, err := http.Get(ts.URL + "/v1/analysis/" + v.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if ev, err := nextSSE(br); err != nil || ev.name != "report" {
		t.Fatalf("first live event %+v, %v; want a mid-run report", ev, err)
	}
	close(release)
	<-j.done
	evs := readSSE(t, br)
	resp.Body.Close()
	if final, idx := lastByName(evs, "report"); idx < 0 || final.data != string(want) {
		t.Errorf("mid-run follower's final report diverged:\nlive:     %+v\npost-hoc: %s", evs, want)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if prefix, closed, _ := j.live.next(); prefix == nil && closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live prefix still held after the job finished with a stored log")
		}
		time.Sleep(time.Millisecond)
	}
	if got := finalReport(v.ID); got != string(want) {
		t.Errorf("follower after the job finished diverged:\nlive:     %s\npost-hoc: %s", got, want)
	}

	failing := testSpec("lb", 2)
	failing.Scheduler.Name = "FCFS"
	failing.Trace = &TraceSpec{Events: true}
	_, fv := submit(t, ts.URL, failing)
	fj, _ := sv.store.Get(fv.ID)
	<-fj.done
	if prefix, _, _ := fj.live.next(); prefix == nil || len(prefix.Events) != len(log.Events) {
		t.Errorf("failed job's live prefix %+v, want the %d events published", prefix, len(log.Events))
	}
	if got := finalReport(fv.ID); got != string(want) {
		t.Errorf("follower of the failed job diverged:\nlive:     %s\npost-hoc: %s", got, want)
	}
}

// TestLiveTraceReleasedWithLastFollower: the live prefix shares its memory
// with the tracer that recorded it. A finished job's live state drops the
// prefix at once, so that memory goes when the last follower holding it
// leaves; a failed job's live state keeps it.
func TestLiveTraceReleasedWithLastFollower(t *testing.T) {
	// prefix returns a log whose event buffer closes freed once collected.
	prefix := func() (*trace.Log, <-chan struct{}) {
		events := make([]trace.Event, 1024)
		freed := make(chan struct{})
		runtime.SetFinalizer(&events[0], func(*trace.Event) { close(freed) })
		return &trace.Log{Events: events}, freed
	}
	collected := func(freed <-chan struct{}, wait time.Duration) bool {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(wait):
			return false
		}
	}

	lt := newLiveTrace()
	log, freed := prefix()
	lt.publish(log)
	log = nil
	followers := make([]*trace.Log, 2)
	for i := range followers {
		followers[i], _, _ = lt.next()
	}
	lt.closeStream(true)
	if got, closed, _ := lt.next(); got != nil || !closed {
		t.Fatalf("finished job's live state holds a prefix (%v) or is open", got != nil)
	}
	followers[0] = nil
	if collected(freed, 50*time.Millisecond) {
		t.Fatal("prefix freed while a follower still reads it")
	}
	runtime.KeepAlive(followers)
	followers[1] = nil
	if !collected(freed, 5*time.Second) {
		t.Fatal("prefix kept after the last follower left")
	}

	failed := newLiveTrace()
	log, freed = prefix()
	failed.publish(log)
	log = nil
	failed.closeStream(false)
	if got, _, _ := failed.next(); got == nil || collected(freed, 50*time.Millisecond) {
		t.Fatal("failed job's live state dropped its prefix")
	}
	runtime.KeepAlive(failed)
}

// TestRetentionUnbounded: a negative budget never evicts.
func TestRetentionUnbounded(t *testing.T) {
	var calls atomic.Int64
	sv := New(Options{Workers: 1, MaxResultBytes: -1, Runner: paddedTraceRunner(1<<10, &calls)})
	defer sv.Shutdown(context.Background())
	for seed := int64(1); seed <= 8; seed++ {
		submitRecorded(t, sv, tracedSpec(seed), http.StatusAccepted)
	}
	if got, evicted := sv.store.Retention(); evicted != 0 || got < 8<<10 {
		t.Errorf("unbounded store: %d bytes retained, %d evicted", got, evicted)
	}
}

// TestRetentionAnalysesUnderBudget: analyses are charged to the result
// byte budget, so repeated analyses of a large trace under a small budget
// keep the live heap under budget plus slack although the analysis count
// cap never binds. The oldest analyses answer 404 on every rendering, the
// newest still serve, and /metrics counts what is retained.
func TestRetentionAnalysesUnderBudget(t *testing.T) {
	const (
		budget    = 8 << 20
		slack     = 8 << 20
		submitted = 40
	)
	log := &trace.Log{Meta: trace.Meta{Policy: "PAR-BS", Workload: "stub", Cores: 2, Banks: 2,
		CPUPerDRAM: 10, TotalDRAM: 200_000, MarkingCap: 5, ReadBufEntries: 64}}
	for i := int64(0); i < 10_000; i++ {
		log.Events = append(log.Events,
			trace.Event{Kind: trace.KindArrive, Cycle: 10 * i, Req: i, Thread: int32(i % 2), Bank: int32(i % 2), Row: i % 16},
			trace.Event{Kind: trace.KindComplete, Cycle: 10*i + 5, Req: i, Thread: int32(i % 2), Bank: int32(i % 2), Row: 5})
	}
	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl, log); err != nil {
		t.Fatal(err)
	}
	sv := New(Options{Workers: 1, MaxResultBytes: budget, MaxAnalyses: 10 * submitted})
	defer sv.Shutdown(context.Background())
	h := sv.Handler()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ids := make([]string, submitted)
	for i := range ids {
		rec := serveRecorded(h, "POST", "/v1/analysis", jsonl.Bytes())
		var created analysisCreatedView
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
			t.Fatalf("analysis %d: %d %s", i, rec.Code, rec.Body.Bytes())
		}
		ids[i] = created.ID
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > budget+slack {
		t.Errorf("live heap grew %d MiB over %d analyses, want under the %d MiB budget + %d MiB",
			grew>>20, submitted, budget>>20, slack>>20)
	}

	retained, evicted := sv.store.Retention()
	if retained > budget || evicted == 0 {
		t.Fatalf("%d bytes retained, %d evicted; want at most %d retained and some evicted", retained, evicted, budget)
	}
	for _, suffix := range []string{"", "/report", "/dashboard", "/snapshot"} {
		if got := status(h, "GET", "/v1/analysis/"+ids[0]+suffix, nil); got != http.StatusNotFound {
			t.Errorf("evicted analysis %s%s answers %d, want 404", ids[0], suffix, got)
		}
		if got := status(h, "GET", "/v1/analysis/"+ids[submitted-1]+suffix, nil); got != http.StatusOK {
			t.Errorf("newest analysis %s%s answers %d, want 200", ids[submitted-1], suffix, got)
		}
	}
	metrics := string(serveRecorded(h, "GET", "/metrics", nil).Body.Bytes())
	if got := metricValue(t, metrics, "parbs_serve_retained_result_bytes"); got != retained {
		t.Errorf("retained_result_bytes = %d, want %d", got, retained)
	}
	if got := metricValue(t, metrics, "parbs_serve_results_evicted_total"); got != evicted {
		t.Errorf("results_evicted_total = %d, want %d", got, evicted)
	}
}

// TestRetentionConcurrentAnalysesAndResults: analyses and job results
// added, used and evicted from several goroutines at once keep the books
// of the shared budget: the charge is the sum of what the LRU holds and
// stays within budget, and the analysis index matches the analyses held.
func TestRetentionConcurrentAnalysesAndResults(t *testing.T) {
	st := NewStore(0, 4<<10)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				e := st.addAnalysis(new(analysis.Store), &analysis.Report{Batches: make([]analysis.BatchSpan, 8)})
				st.analysis(e.id)
				now := time.Now()
				j := st.NewJob(testSpec("c", 1000*g+i), now)
				j.finish(st.Publish(j, &Result{Report: json.RawMessage(strings.Repeat("1", 300))}), nil, now)
				st.Use(j)
			}
		}()
	}
	wg.Wait()

	st.mu.Lock()
	defer st.mu.Unlock()
	var held int64
	analyses := 0
	for el := st.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*retained)
		held += e.size
		if e.analysis != nil {
			analyses++
			if st.analyses[e.analysis.id] != e {
				t.Errorf("analysis %s held in the LRU but not indexed", e.analysis.id)
			}
		}
	}
	if held != st.bytes || st.bytes > st.maxBytes {
		t.Errorf("charged %d bytes, LRU holds %d, budget %d", st.bytes, held, st.maxBytes)
	}
	if analyses != len(st.analyses) || analyses != len(st.analysisOrder) || analyses > st.maxAnalyses {
		t.Errorf("%d analyses in the LRU, %d indexed, %d in creation order, cap %d",
			analyses, len(st.analyses), len(st.analysisOrder), st.maxAnalyses)
	}
}
