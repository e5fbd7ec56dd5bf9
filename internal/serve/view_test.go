package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	parbs "repro"
)

// Golden job-view digests: the sha256 of the GET /v1/runs/{id} body and of
// the SSE stream of a real traced Case Study I job, and of the GET body of
// its cache-hit replay, with the jobs' timestamps pinned. The digests were
// computed with the encoding/json view encoder (writeJSON with SetIndent
// for GET, json.Marshal for the SSE done event), so any encoder that
// reproduces them serves the same bytes. They are not to be regenerated
// for an encoder change; only a deliberate change to the embedded
// artifacts' bytes moves them (they were last re-pinned when Chrome request
// spans stopped giving a negative wait_marked to requests serviced before
// they were marked). The values of the telemetry report's loop block
// (evaluated and skipped cycles, skip ratio) are zeroed before hashing and
// pinned in goldenJobViewLoop: they describe how the run loop reached the
// output, not the output, and a faster next-event clock lowers them.
var goldenJobViewDigests = map[string]string{
	"get":        "474a08abba8e37abc06ed7437c2b5e76633a98e02af9acc77d302eed1f912109",
	"sse":        "848847592d22570da4069513cc5426eb4c62a93a3d0cfb4080508e632f3c744f",
	"cached_get": "814225e615005dd5562e4bcba82bb1513de86b06f70ef0faa4babd490e562711",
}

var goldenJobViewLoop = map[string]string{
	"get":        "19413 2587 0.1175909090909091",
	"sse":        "19413 2587 0.1175909090909091",
	"cached_get": "19413 2587 0.1175909090909091",
}

// goldenEpoch anchors the pinned job timestamps.
var goldenEpoch = time.Date(2008, 6, 21, 9, 0, 0, 0, time.UTC)

// tracedCSISpec is a Case Study I job under PAR-BS with telemetry and the
// Chrome trace artifact on, short enough for -race.
func tracedCSISpec() Spec {
	return Spec{
		Client:    "golden",
		System:    SystemSpec{Cores: 4, MeasureCycles: 200_000, WarmupCycles: 20_000},
		Workload:  WorkloadSpec{Mix: "CSI"},
		Scheduler: SchedulerSpec{Name: "PAR-BS"},
		Telemetry: &TelemetrySpec{},
		Trace:     &TraceSpec{},
	}
}

// pinJobTimes overwrites a terminal job's timestamps with fixed ones, so
// its view no longer depends on the wall clock.
func pinJobTimes(j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.submittedAt = goldenEpoch
	if !j.startedAt.IsZero() {
		j.startedAt = goldenEpoch.Add(1500 * time.Microsecond)
	}
	j.finishedAt = goldenEpoch.Add(250 * time.Millisecond)
}

// serveRecorded runs one request through h and returns the recorded
// response.
func serveRecorded(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// submitRecorded POSTs spec through s's handler, checks the status, waits
// for the admitted job to finish, and returns it with the response body.
func submitRecorded(t testing.TB, s *Server, spec Spec, wantCode int) (*Job, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := serveRecorded(s.Handler(), "POST", "/v1/runs", body)
	if rec.Code != wantCode {
		t.Fatalf("submit: status %d, want %d: %s", rec.Code, wantCode, rec.Body.Bytes())
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	j, ok := s.store.Get(v.ID)
	if !ok {
		t.Fatalf("submitted job %q not in the store", v.ID)
	}
	<-j.done
	return j, rec.Body.Bytes()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenJobView(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	j, _ := submitRecorded(t, s, tracedCSISpec(), http.StatusAccepted)
	if snap := j.snapshot(); snap.Status != StatusDone || snap.Result == nil || len(snap.Result.Trace) == 0 {
		t.Fatalf("golden job ended %s (%s) without a trace artifact", snap.Status, snap.Err)
	}
	pinJobTimes(j)
	cached, _ := submitRecorded(t, s, tracedCSISpec(), http.StatusOK)
	pinJobTimes(cached)

	bodies := map[string][]byte{
		"get":        serveRecorded(h, "GET", "/v1/runs/"+j.ID, nil).Body.Bytes(),
		"sse":        serveRecorded(h, "GET", "/v1/runs/"+j.ID+"/events", nil).Body.Bytes(),
		"cached_get": serveRecorded(h, "GET", "/v1/runs/"+cached.ID, nil).Body.Bytes(),
	}
	for key, body := range bodies {
		masked, loop := splitLoopStats(body)
		got := sha256Hex(masked)
		t.Logf("%s: %d bytes, sha256 %s, loop %s", key, len(body), got, loop)
		if want := goldenJobViewDigests[key]; got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
		}
		if want := goldenJobViewLoop[key]; loop != want {
			t.Errorf("%s: telemetry loop block %q, want %q", key, loop, want)
		}
	}
}

// loopStat matches a value of the telemetry report's loop block that
// depends on how many cycles the run loop skipped.
var loopStat = regexp.MustCompile(`("(?:evaluated_cycles|skipped_cycles|skip_ratio)":\s*)([^,\s}]+)`)

// splitLoopStats returns body with the loop block's cycle counts and skip
// ratio zeroed, and those values in order.
func splitLoopStats(body []byte) ([]byte, string) {
	var vals []string
	for _, m := range loopStat.FindAllSubmatch(body, -1) {
		vals = append(vals, string(m[2]))
	}
	return loopStat.ReplaceAll(body, []byte("${1}0")), strings.Join(vals, " ")
}

var (
	tracedCSIOnce sync.Once
	tracedCSIRes  *Result
	tracedCSIErr  error
)

// tracedCSIResult runs tracedCSISpec once per process through the
// production Runner and returns its result as the Runner returned it.
func tracedCSIResult(tb testing.TB) *Result {
	tb.Helper()
	tracedCSIOnce.Do(func() {
		spec := tracedCSISpec()
		if tracedCSIErr = spec.normalize(); tracedCSIErr != nil {
			return
		}
		tracedCSIRes, tracedCSIErr = SimulationRunner(parbs.NewAloneCache())(context.Background(), spec, Sink{})
	})
	if tracedCSIErr != nil {
		tb.Fatal(tracedCSIErr)
	}
	return tracedCSIRes
}

// discardResponse is a streaming http.ResponseWriter that counts and drops
// the body.
type discardResponse struct {
	header http.Header
	n      int64
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Flush()                      {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// benchJobView serves the view of a completed job holding the traced Case
// Study I result b.N times through the server's handler: suffix "" is
// GET /v1/runs/{id}, "/events" its SSE stream.
func benchJobView(b *testing.B, suffix string) {
	res := tracedCSIResult(b)
	s := New(Options{Workers: 1, Runner: func(context.Context, Spec, Sink) (*Result, error) { return res, nil }})
	defer s.Shutdown(context.Background())
	j, _ := submitRecorded(b, s, tracedCSISpec(), http.StatusAccepted)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/runs/"+j.ID+suffix, nil)
	w := &discardResponse{header: http.Header{}}
	h.ServeHTTP(w, req)
	b.SetBytes(w.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkJobViewGET measures GET /v1/runs/{id} of a traced result.
func BenchmarkJobViewGET(b *testing.B) { benchJobView(b, "") }

// BenchmarkJobViewSSE measures the SSE stream of a finished traced job:
// its one done event carries the compact view.
func BenchmarkJobViewSSE(b *testing.B) { benchJobView(b, "/events") }

// BenchmarkJobViewPublish measures the one-time check and canonicalization
// of the traced result's artifacts when its job finishes.
func BenchmarkJobViewPublish(b *testing.B) {
	res := tracedCSIResult(b)
	b.SetBytes(int64(len(res.Report) + len(res.Telemetry) + len(res.Trace)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := publish(res); err != nil {
			b.Fatal(err)
		}
	}
}

// The job-view oracle is the encoding/json path the server used before it
// spliced stored artifacts: viewOf builds the whole view, GET encodes it
// with an indenting json.Encoder and the SSE done event with json.Marshal.

func viewOf(j *Job) jobView {
	snap := j.snapshot()
	v := jobView{
		Schema:      Schema,
		ID:          j.ID,
		Client:      j.Client,
		Status:      snap.Status,
		Cached:      snap.Cached,
		Cost:        j.Cost,
		SubmittedAt: snap.SubmittedAt,
		WaitMS:      snap.Wait(time.Now()).Milliseconds(),
		DispatchSeq: snap.DispatchSeq,
		Error:       snap.Err,
	}
	if !snap.StartedAt.IsZero() {
		t := snap.StartedAt
		v.StartedAt = &t
	}
	if !snap.FinishedAt.IsZero() {
		t := snap.FinishedAt
		v.FinishedAt = &t
	}
	if snap.Result != nil {
		v.Report = snap.Result.Report
		v.Telemetry = snap.Result.Telemetry
		v.Trace = snap.Result.Trace
	}
	return v
}

func oracleGET(t testing.TB, v jobView) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("oracle GET: %v", err)
	}
	return buf.Bytes()
}

func oracleSSE(t testing.TB, v jobView) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("oracle SSE: %v", err)
	}
	return []byte("event: done\ndata: " + string(data) + "\n\n")
}

// rawView is the oracle view of a finished job with the artifacts as the
// Runner returned them, before the server canonicalized them.
func rawView(j *Job, res *Result) jobView {
	v := viewOf(j)
	if v.Status == StatusDone {
		v.Report, v.Telemetry, v.Trace = res.Report, res.Telemetry, res.Trace
	}
	return v
}

// jsonGen builds one valid JSON value from fuzz bytes, steering toward what
// the view encoder must get right: whitespace anywhere, HTML characters and
// line separators in strings, escaped quotes and backslashes, punctuation
// inside strings, and empty or nested objects and arrays. It stops nesting
// when the bytes run out.
type jsonGen struct {
	src []byte
	out []byte
}

func (g *jsonGen) next() byte {
	if len(g.src) == 0 {
		return 0
	}
	b := g.src[0]
	g.src = g.src[1:]
	return b
}

func (g *jsonGen) pick(opts ...string) { g.out = append(g.out, opts[int(g.next())%len(opts)]...) }

func (g *jsonGen) space() {
	for n := g.next() % 3; n > 0; n-- {
		g.pick(" ", "\t", "\n", "\r")
	}
}

func (g *jsonGen) str() {
	g.out = append(g.out, '"')
	for n := g.next() % 6; n > 0; n-- {
		g.pick("a", "<", ">", "&", "\u2028", "\u2029", `\"`, `\\`, `\/`, `\n`, `\u00e9`, `\u2028`,
			"\u00e9", "\u20ac", "{", "}", "[", "]", ",", ":", " ", "</script>")
	}
	g.out = append(g.out, '"')
}

func (g *jsonGen) value(depth int) {
	g.space()
	k := g.next() % 8
	if depth >= 5 || len(g.src) == 0 {
		k = 0
	}
	switch k {
	case 0:
		g.pick("0", "-1", "3.25", "1e9", "-0.5E-3", "12345678901234567890")
	case 1:
		g.pick("true", "false", "null")
	case 2, 3:
		g.str()
	case 4, 5:
		g.out = append(g.out, '{')
		for i, n := 0, int(g.next()%4); i < n; i++ {
			if i > 0 {
				g.out = append(g.out, ',')
			}
			g.space()
			g.str()
			g.space()
			g.out = append(g.out, ':')
			g.value(depth + 1)
		}
		g.space()
		g.out = append(g.out, '}')
	default:
		g.out = append(g.out, '[')
		for i, n := 0, int(g.next()%4); i < n; i++ {
			if i > 0 {
				g.out = append(g.out, ',')
			}
			g.value(depth + 1)
		}
		g.space()
		g.out = append(g.out, ']')
	}
	g.space()
}

// artifact returns an absent artifact or one value, as fresh bytes.
func (g *jsonGen) artifact() json.RawMessage {
	if g.next()%5 == 0 {
		return nil
	}
	g.out = nil
	g.value(0)
	return g.out
}

func FuzzJobView(f *testing.F) {
	f.Add([]byte("\x01\x04\x03\x02\x02\x05\x06\x07\x01\x03\x04\x00\x02"), "client <&>", "boom \u2028\u2029 </b>")
	f.Add([]byte(" {\"a\": [1, 2, {}], \"b\": \"<\\u2028>\"}\n"), "", "")
	f.Add([]byte("\x02\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05"), "\u00e9", `quote " and \ backslash`)
	for _, raw := range []string{"-0.0e+1", "1.", "01", `"\u12"`, "\"\x01\"", "[1,]", `{"a" 1}`, "tru", "nul", " [ ] ", `"\x"`, "\"\xe2\x80\xa8\xe2\x80\"", "1e", "-"} {
		f.Add([]byte(raw), "", "")
	}
	f.Fuzz(func(t *testing.T, shape []byte, client, errMsg string) {
		// The stored form of any bytes is what encoding/json would embed,
		// and the check fails exactly where encoding/json fails.
		want, werr := json.Marshal(json.RawMessage(shape))
		got, gerr := canonicalArtifact(shape)
		switch {
		case len(shape) == 0:
			if gerr != nil || len(got) != 0 {
				t.Fatalf("empty artifact: %q, %v", got, gerr)
			}
		case (werr == nil) != (gerr == nil):
			t.Fatalf("canonicalArtifact(%q) error %v, encoding/json error %v", shape, gerr, werr)
		case werr == nil && !bytes.Equal(got, want):
			t.Fatalf("canonicalArtifact(%q) = %q, encoding/json embeds %q", shape, got, want)
		}

		g := jsonGen{src: shape}
		res := &Result{Report: g.artifact(), Telemetry: g.artifact(), Trace: g.artifact()}
		for _, a := range [][]byte{res.Report, res.Telemetry, res.Trace} {
			if len(a) > 0 && !json.Valid(a) {
				t.Fatalf("generator built invalid JSON %q", a)
			}
		}
		before := *res
		before.Report = bytes.Clone(res.Report)
		before.Telemetry = bytes.Clone(res.Telemetry)
		before.Trace = bytes.Clone(res.Trace)

		s := New(Options{Workers: 1, Runner: func(_ context.Context, spec Spec, _ Sink) (*Result, error) {
			if spec.Scheduler.Name == "FCFS" {
				return nil, errors.New(errMsg)
			}
			return res, nil
		}})
		defer s.Shutdown(context.Background())
		spec := Spec{
			Client:    client,
			System:    SystemSpec{Cores: 1},
			Workload:  WorkloadSpec{Benchmarks: []string{"mcf"}},
			Scheduler: SchedulerSpec{Name: "PAR-BS"},
		}
		done, _ := submitRecorded(t, s, spec, http.StatusAccepted)
		cached, hit := submitRecorded(t, s, spec, http.StatusOK)
		spec.Scheduler.Name = "FCFS"
		failed, _ := submitRecorded(t, s, spec, http.StatusAccepted)

		h := s.Handler()
		for _, j := range []*Job{done, cached, failed} {
			v := rawView(j, res)
			if got, want := serveRecorded(h, "GET", "/v1/runs/"+j.ID, nil).Body.Bytes(), oracleGET(t, v); !bytes.Equal(got, want) {
				t.Errorf("GET %s (%s):\n got %q\nwant %q", j.ID, v.Status, got, want)
			}
			if got, want := serveRecorded(h, "GET", "/v1/runs/"+j.ID+"/events", nil).Body.Bytes(), oracleSSE(t, v); !bytes.Equal(got, want) {
				t.Errorf("SSE %s (%s):\n got %q\nwant %q", j.ID, v.Status, got, want)
			}
		}
		if want := oracleGET(t, rawView(cached, res)); !bytes.Equal(hit, want) {
			t.Errorf("cache-hit submit:\n got %q\nwant %q", hit, want)
		}
		if !bytes.Equal(res.Report, before.Report) || !bytes.Equal(res.Telemetry, before.Telemetry) || !bytes.Equal(res.Trace, before.Trace) {
			t.Errorf("publishing modified the Runner's result")
		}
	})
}

// TestInvalidArtifactFailsJob: a Runner artifact that is not valid JSON
// fails the job with an error naming the artifact, counted in /metrics,
// instead of a 200 with an empty body.
func TestInvalidArtifactFailsJob(t *testing.T) {
	for _, name := range []string{"report", "telemetry", "trace"} {
		t.Run(name, func(t *testing.T) {
			res := &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}
			bad := json.RawMessage(`{"events":[1,2`)
			switch name {
			case "report":
				res.Report = bad
			case "telemetry":
				res.Telemetry = bad
			case "trace":
				res.Trace = bad
			}
			s := New(Options{Workers: 1, Runner: func(context.Context, Spec, Sink) (*Result, error) { return res, nil }})
			defer s.Shutdown(context.Background())
			spec := Spec{System: SystemSpec{Cores: 1}, Workload: WorkloadSpec{Benchmarks: []string{"mcf"}}, Scheduler: SchedulerSpec{Name: "FCFS"}}
			j, _ := submitRecorded(t, s, spec, http.StatusAccepted)

			rec := serveRecorded(s.Handler(), "GET", "/v1/runs/"+j.ID, nil)
			var v jobView
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("GET body %q: %v", rec.Body.Bytes(), err)
			}
			if v.Status != StatusFailed || !strings.HasPrefix(v.Error, "invalid "+name+" artifact: ") {
				t.Errorf("job %s: %q, want failed with invalid %s artifact", v.Status, v.Error, name)
			}
			if len(v.Report)+len(v.Telemetry)+len(v.Trace) != 0 {
				t.Errorf("failed job view carries artifacts")
			}
			sse := serveRecorded(s.Handler(), "GET", "/v1/runs/"+j.ID+"/events", nil).Body.String()
			if !strings.Contains(sse, `"error":"invalid `+name+` artifact: `) {
				t.Errorf("SSE done event lacks the error: %q", sse)
			}
			// The failed result is not cached: a resubmission runs again.
			submitRecorded(t, s, spec, http.StatusAccepted)
			// The worker counts a job just after finishing it.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				metrics := serveRecorded(s.Handler(), "GET", "/metrics", nil).Body.String()
				got := metricValue(t, metrics, "parbs_serve_jobs_failed_total")
				if got == 2 {
					break
				}
				if got > 2 || time.Now().After(deadline) {
					t.Fatalf("jobs_failed_total = %d, want 2", got)
				}
			}
		})
	}
}

// TestWriteJSONEncodeError: a value encoding/json rejects gets a 500 with a
// JSON error, not a 200 with an empty body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"report": json.RawMessage(`{"x":`)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "encode response") {
		t.Errorf("body %q (%v), want a JSON encode error", rec.Body.Bytes(), err)
	}
}

// TestCanonicalArtifactDepth: the nesting limit is encoding/json's, which
// random fuzz inputs rarely reach.
func TestCanonicalArtifactDepth(t *testing.T) {
	for _, n := range []int{maxJSONDepth - 1, maxJSONDepth, maxJSONDepth + 1} {
		for _, open := range []string{"[", `{"k":`} {
			close := map[string]string{"[": "]", `{"k":`: "}"}[open]
			raw := []byte(strings.Repeat(open, n) + "0" + strings.Repeat(close, n))
			_, err := canonicalArtifact(raw)
			if want := json.Valid(raw); (err == nil) != want {
				t.Errorf("depth %d of %q: error %v, encoding/json valid %v", n, open, err, want)
			}
		}
	}
}
