package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// FuzzSubmitSpec sends arbitrary bytes to POST /v1/runs. The handler must
// not panic, must answer only 200, 202, 400, 429 or 503 (or 413 for a body
// over maxSpecBytes), and must admit a job only for a body whose spec
// decodes and passes normalize, storing that normalized spec. Seeds in
// testdata/fuzz/FuzzSubmitSpec.
func FuzzSubmitSpec(f *testing.F) {
	f.Add([]byte(`{"system":{"cores":1},"workload":{"benchmarks":["mcf"]},"scheduler":{"name":"PAR-BS"}}`))
	f.Add([]byte(`{"client":"a","system":{"cores":4},"workload":{"mix":"CSI"},"scheduler":{"name":"FR-FCFS"},"telemetry":{},"trace":{"events":true}}`))
	f.Add([]byte(`{"system":{"cores":1},"workload":{"benchmarks":["mcf"]},"scheduler":{"name":"PAR-BS","marking_cap":0}} trailing`))
	f.Add([]byte(`{"system":{"cores":2,"channels":3},"workload":{"benchmarks":["mcf","lbm"]},"scheduler":{"name":"FCFS"}}`))
	// A billion banks: about 120 bytes that would allocate 60 GB if run.
	f.Add([]byte(`{"system":{"cores":4,"banks":1073741824},"workload":{"mix":"CSI"},"scheduler":{"name":"PAR-BS"}}`))
	f.Add([]byte(`{"bogus":1}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Options{Workers: 1, QueueCap: 1, Runner: func(context.Context, Spec, Sink) (*Result, error) {
			return &Result{Report: json.RawMessage(`{"scheduler":"stub"}`)}, nil
		}})
		defer s.Shutdown(context.Background())

		rec := serveRecorded(s.Handler(), "POST", "/v1/runs", body)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxSpecBytes {
				t.Fatalf("413 for a %d-byte body", len(body))
			}
			return
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if !json.Valid(rec.Body.Bytes()) {
				t.Errorf("status %d with a non-JSON body %q", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}

		// The handler's decode, repeated independently.
		var want Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		valid := dec.Decode(&want) == nil && want.normalize() == nil
		admitted := rec.Code == http.StatusOK || rec.Code == http.StatusAccepted
		if admitted != valid {
			t.Fatalf("status %d, but decode and normalize accept it: %v\n%q", rec.Code, valid, body)
		}
		if !admitted {
			return
		}
		var v jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("admission response %q: %v", rec.Body.Bytes(), err)
		}
		j, ok := s.store.Get(v.ID)
		if !ok {
			t.Fatalf("admitted job %q not in the store", v.ID)
		}
		if !reflect.DeepEqual(j.Spec, want) {
			t.Errorf("stored spec %+v, want the normalized %+v", j.Spec, want)
		}
	})
}
