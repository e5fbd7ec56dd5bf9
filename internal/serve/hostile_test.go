package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// Hostile analysis uploads: a ~100-byte trace or snapshot whose header
// declares 2^34 events must get a 201 over an empty store or a 4xx, in a
// bounded heap, never an out-of-memory crash; bodies over the upload limit
// get 413.

const hugeTraceHeader = `{"schema":"parbs.trace/v1","kind":"run","policy":"PAR-BS","cores":2,"banks":2,"events":17179869184,"dropped":0}` + "\n"

// hugeSnapshotUpload forges a snapshot header declaring 2^34 events over a
// short body.
func hugeSnapshotUpload() []byte {
	hdr := `{"meta":{"policy":"PAR-BS","workload":"w","cores":2,"banks":2},"truncated":false,"dropped":0,"events":17179869184,"batches":0}`
	var buf bytes.Buffer
	buf.WriteString(analysis.Schema + "\n")
	binary.Write(&buf, binary.LittleEndian, uint32(len(hdr)))
	buf.WriteString(hdr)
	buf.Write(make([]byte, 32))
	return buf.Bytes()
}

// multipartArms builds a diff upload with parts a and b.
func multipartArms(t *testing.T, a, b []byte) (string, *bytes.Buffer) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for name, data := range map[string][]byte{"a": a, "b": b} {
		fw, err := mw.CreateFormFile(name, name+".bin")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(data)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), &body
}

// post sends body and reports the status and the heap the round trip
// allocated (client, server and handler together).
func post(t *testing.T, url, contentType string, body []byte) (int, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	runtime.ReadMemStats(&after)
	return resp.StatusCode, after.TotalAlloc - before.TotalAlloc
}

func TestAnalysisHostileHeaderCounts(t *testing.T) {
	sv := New(Options{Workers: 1, Runner: func(context.Context, Spec, Sink) (*Result, error) { return &Result{}, nil }})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	const bound = 16 << 20

	if code, n := post(t, ts.URL+"/v1/analysis", "application/x-ndjson", []byte(hugeTraceHeader)); code != http.StatusCreated || n > bound {
		t.Errorf("trace declaring 2^34 events: status %d, %d bytes allocated; want 201 within %d", code, n, bound)
	}
	ct, body := multipartArms(t, hugeSnapshotUpload(), hugeSnapshotUpload())
	if code, n := post(t, ts.URL+"/v1/analysis/diff", ct, body.Bytes()); code != http.StatusBadRequest || n > bound {
		t.Errorf("snapshots declaring 2^34 events: status %d, %d bytes allocated; want 400 within %d", code, n, bound)
	}
	ct, body = multipartArms(t, []byte(hugeTraceHeader), []byte(hugeTraceHeader))
	if code, n := post(t, ts.URL+"/v1/analysis/diff", ct, body.Bytes()); code != http.StatusCreated || n > bound {
		t.Errorf("trace arms declaring 2^34 events: status %d, %d bytes allocated; want 201 within %d", code, n, bound)
	}
}

// hugeShapeHeader declares a billion cores; every analysis window would
// carry one column per core.
const hugeShapeHeader = `{"schema":"parbs.trace/v1","kind":"run","policy":"PAR-BS","cores":1000000000,"banks":2,"events":1,"dropped":0}` + "\n"

func TestAnalysisHostileHeaderShape(t *testing.T) {
	sv := New(Options{Workers: 1, Runner: func(context.Context, Spec, Sink) (*Result, error) { return &Result{}, nil }})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	const bound = 16 << 20

	if code, n := post(t, ts.URL+"/v1/analysis", "application/x-ndjson", []byte(hugeShapeHeader)); code != http.StatusBadRequest || n > bound {
		t.Errorf("trace declaring 10^9 cores: status %d, %d bytes allocated; want 400 within %d", code, n, bound)
	}
	ct, body := multipartArms(t, []byte(hugeShapeHeader), []byte(hugeTraceHeader))
	if code, n := post(t, ts.URL+"/v1/analysis/diff", ct, body.Bytes()); code != http.StatusBadRequest || n > bound {
		t.Errorf("diff arm declaring 10^9 cores: status %d, %d bytes allocated; want 400 within %d", code, n, bound)
	}
}

func TestAnalysisUploadLimit(t *testing.T) {
	sv := New(Options{Workers: 1, Runner: func(context.Context, Spec, Sink) (*Result, error) { return &Result{}, nil }})
	defer sv.Shutdown(context.Background())
	sv.maxUpload = 1024
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	big := []byte(hugeTraceHeader + strings.Repeat(" ", 4096))
	if code, _ := post(t, ts.URL+"/v1/analysis", "application/x-ndjson", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized trace: status %d, want 413", code)
	}
	if code, _ := post(t, ts.URL+"/v1/analysis", "application/json", []byte(`{"run":"`+strings.Repeat("x", 4096)+`"}`)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized JSON form: status %d, want 413", code)
	}
	if code, _ := post(t, ts.URL+"/v1/analysis", "application/x-ndjson", []byte(hugeTraceHeader)); code != http.StatusCreated {
		t.Errorf("trace under the limit: status %d, want 201", code)
	}
	// One oversized arm within the whole-body allowance (2 × limit + framing).
	ct, body := multipartArms(t, []byte(hugeTraceHeader), big)
	if code, _ := post(t, ts.URL+"/v1/analysis/diff", ct, body.Bytes()); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized diff arm: status %d, want 413", code)
	}
	// A body beyond the whole-body allowance.
	huge := bytes.Repeat([]byte("x"), 2<<20)
	ct, body = multipartArms(t, huge, huge)
	if code, _ := post(t, ts.URL+"/v1/analysis/diff", ct, body.Bytes()); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized diff body: status %d, want 413", code)
	}
}

// TestSubmitHostileSpecs: POST /v1/runs refuses what it cannot hold before
// anything runs. The Runner fails the test if it is reached, so a
// regression cannot run the billion-bank system (a 60 GB allocation).
func TestSubmitHostileSpecs(t *testing.T) {
	sv := New(Options{Workers: 1, Runner: func(_ context.Context, spec Spec, _ Sink) (*Result, error) {
		t.Errorf("hostile spec reached the Runner: %+v", spec)
		return &Result{}, nil
	}})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	banks := `{"system":{"cores":4,"banks":1073741824},"workload":{"mix":"CSI"},"scheduler":{"name":"PAR-BS"}}`
	if code, _ := post(t, ts.URL+"/v1/runs", "application/json", []byte(banks)); code != http.StatusBadRequest {
		t.Errorf("billion-bank spec: status %d, want 400", code)
	}
	// A body over the spec limit is refused unread: 413, even when it
	// would decode (leading whitespace is valid JSON).
	big := append(bytes.Repeat([]byte(" "), maxSpecBytes), banks...)
	if code, _ := post(t, ts.URL+"/v1/runs", "application/json", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte spec: status %d, want 413", len(big), code)
	}
	// system.parallelism was removed from the spec; the decoder disallows
	// unknown fields, so an old spec that sets it is refused by name.
	par := `{"system":{"cores":4,"parallelism":2},"workload":{"mix":"CSI"},"scheduler":{"name":"PAR-BS"}}`
	rec := serveRecorded(sv.Handler(), "POST", "/v1/runs", []byte(par))
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusBadRequest ||
		!strings.Contains(body.Error, `unknown field "parallelism"`) {
		t.Errorf("spec with system.parallelism: status %d body %s, want 400 naming the field", rec.Code, rec.Body.String())
	}
}

// TestSpecTimeoutCannotLiftDefault: a spec's timeout_ms only shortens the
// server's default deadline; asking for more still ends at the default.
func TestSpecTimeoutCannotLiftDefault(t *testing.T) {
	sv := New(Options{Workers: 1, DefaultTimeout: 30 * time.Millisecond, Runner: func(ctx context.Context, _ Spec, _ Sink) (*Result, error) {
		<-ctx.Done() // a run that never finishes on its own
		return nil, ctx.Err()
	}})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	spec := testSpec("t", 1)
	spec.TimeoutMS = time.Hour.Milliseconds()
	_, v := submit(t, ts.URL, spec)
	got := waitDone(t, ts.URL, v.ID, 10*time.Second)
	if got.Status != StatusFailed || !strings.Contains(got.Error, "deadline") {
		t.Errorf("job asking for an hour under a 30ms default: status %s error %q", got.Status, got.Error)
	}
}
