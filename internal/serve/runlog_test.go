package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	parbs "repro"
	"repro/internal/analysis"
)

// TestAnalysisByRunMatchesUpload: analyzing a run in place (POST
// /v1/analysis {"run"} and a diff by run IDs, both built from the stored
// event log) gives, byte for byte, the report and snapshot of uploading
// the run's GET /trace body. It covers a lock-step CSI run, a 4-channel
// Independent run, and a run whose tracer dropped events at its cap.
func TestAnalysisByRunMatchesUpload(t *testing.T) {
	sv := New(Options{Workers: 2})
	defer sv.Shutdown(context.Background())
	h := sv.Handler()

	lockstep := tracedSpec(1)
	independent := tracedSpec(2)
	independent.System.Channels = 4
	independent.System.ChannelMode = "independent"
	capped := tracedSpec(3)
	capped.Trace.MaxEvents = 2_000

	get := func(path string) []byte {
		t.Helper()
		rec := serveRecorded(h, "GET", path, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	analyze := func(rec *httptest.ResponseRecorder) (report, snapshot []byte) {
		t.Helper()
		var v analysisCreatedView
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			t.Fatalf("analysis: %d %s", rec.Code, rec.Body.Bytes())
		}
		return get("/v1/analysis/" + v.ID), get("/v1/analysis/" + v.ID + "/snapshot")
	}
	diff := func(rec *httptest.ResponseRecorder) []byte {
		t.Helper()
		var v diffCreatedView
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			t.Fatalf("diff: %d %s", rec.Code, rec.Body.Bytes())
		}
		return get("/v1/diffs/" + v.ID)
	}

	base, _ := submitRecorded(t, sv, lockstep, http.StatusAccepted)
	baseTrace := get("/v1/runs/" + base.ID + "/trace")
	for name, spec := range map[string]Spec{"lockstep": lockstep, "independent": independent, "capped": capped} {
		t.Run(name, func(t *testing.T) {
			j := base
			if name != "lockstep" {
				j, _ = submitRecorded(t, sv, spec, http.StatusAccepted)
			}
			body := get("/v1/runs/" + j.ID + "/trace")

			byRun, byRunSnap := analyze(postRecorded(h, "/v1/analysis", "application/json", fmt.Sprintf(`{"run":%q}`, j.ID)))
			upload, uploadSnap := analyze(postRecorded(h, "/v1/analysis", "application/x-ndjson", string(body)))
			if !bytes.Equal(byRun, upload) {
				t.Errorf("report by run differs from the uploaded trace's:\nby run: %.300s\nupload: %.300s", byRun, upload)
			}
			if !bytes.Equal(byRunSnap, uploadSnap) {
				t.Errorf("snapshot by run (%d bytes) differs from the uploaded trace's (%d bytes)", len(byRunSnap), len(uploadSnap))
			}
			var rep struct {
				Events  int   `json:"events"`
				Dropped int64 `json:"dropped"`
			}
			if err := json.Unmarshal(byRun, &rep); err != nil || rep.Events == 0 {
				t.Fatalf("report of %d events (%v)", rep.Events, err)
			}
			if (name == "capped") != (rep.Dropped > 0) {
				t.Errorf("%s run dropped %d events", name, rep.Dropped)
			}

			byIDs := diff(postRecorded(h, "/v1/analysis/diff", "application/json", fmt.Sprintf(`{"a":%q,"b":%q}`, j.ID, base.ID)))
			var mp bytes.Buffer
			mw := multipart.NewWriter(&mp)
			for arm, raw := range map[string][]byte{"a": body, "b": baseTrace} {
				fw, _ := mw.CreateFormFile(arm, arm+".jsonl")
				fw.Write(raw)
			}
			mw.Close()
			if uploaded := diff(postRecorded(h, "/v1/analysis/diff", mw.FormDataContentType(), mp.String())); !bytes.Equal(byIDs, uploaded) {
				t.Errorf("diff by run IDs differs from the uploaded traces':\nby IDs: %.300s\nupload: %.300s", byIDs, uploaded)
			}
		})
	}
}

// postRecorded POSTs body as contentType through h.
func postRecorded(h http.Handler, path, contentType, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	h.ServeHTTP(rec, req)
	return rec
}

// TestRetentionChargesTracedResults: what the store charges a traced result
// of the real runner is what retaining it costs. After GC the live heap
// has grown by the charge within 10% plus 256 KiB for the job records, so
// a stored event log held outside its charge (or charged append slack it
// does not hold) fails.
func TestRetentionChargesTracedResults(t *testing.T) {
	const tolerance = 256 << 10
	run := SimulationRunner(parbs.NewAloneCache())
	spec := func(sched string) Spec {
		sp := tracedSpec(7)
		sp.Scheduler.Name = sched
		if err := sp.normalize(); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	// Warm the alone baselines: every job below shares one system.
	if _, err := run(context.Background(), spec("FCFS"), Sink{}); err != nil {
		t.Fatal(err)
	}

	st := NewStore(0, -1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, sched := range []string{"FR-FCFS", "NFQ", "STFM", "PAR-BS"} {
		sp := spec(sched)
		j := st.NewJob(sp, time.Now())
		res, err := run(context.Background(), sp, Sink{TraceLog: j.live.publish})
		if err == nil {
			res, err = publish(res)
		}
		if err != nil {
			t.Fatal(err)
		}
		j.finish(st.Publish(j, res), nil, time.Now())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	charged, _ := st.Retention()
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if d := grew - charged; d > charged/10+tolerance || -d > charged/10+tolerance {
		t.Errorf("live heap grew %d KiB for %d KiB charged, want within 10%% + %d KiB", grew>>10, charged>>10, tolerance>>10)
	}
	runtime.KeepAlive(st)
}

// TestLiveFollowsRealRun: a /live follower attached as the real runner
// starts reads the prefixes the simulation goroutine publishes (under
// -race, this checks that sharing them needs no copy) and converges to the
// analysis of the stored log, on a lock-step run and on a sharded one,
// whose events arrive only when it ends.
func TestLiveFollowsRealRun(t *testing.T) {
	sv := New(Options{Workers: 1})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	lockstep := tracedSpec(4)
	lockstep.System.MeasureCycles = 400_000
	independent := tracedSpec(5)
	independent.System.Channels = 4
	independent.System.ChannelMode = "independent"
	for _, spec := range []Spec{lockstep, independent} {
		_, v := submit(t, ts.URL, spec)
		resp, err := http.Get(ts.URL + "/v1/analysis/" + v.ID + "/live")
		if err != nil {
			t.Fatal(err)
		}
		evs := readSSE(t, resp.Body)
		resp.Body.Close()
		j, _ := sv.store.Get(v.ID)
		want, err := json.Marshal(analysis.FromLog(j.snapshot().Result.TraceLog).Analyze(analysis.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if final, idx := lastByName(evs, "report"); idx < 0 || final.data != string(want) {
			t.Errorf("%s: live report diverged from the stored log's analysis (%d events in stream)", v.ID, len(evs))
		}
	}
}
