package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/analysis"
)

// Cross-run diff endpoints: POST /v1/analysis/diff aligns two runs (by run
// ID, retained analysis ID, or uploaded snapshot/trace) and retains the
// resulting DiffReport under a d- ID for JSON, text, and dashboard renders.

// diffEntry is one retained cross-run comparison.
type diffEntry struct {
	id     string
	report *analysis.DiffReport
}

// diffStore retains completed diffs up to a cap, evicting oldest first —
// unconditional FIFO (diffs are immutable results).
type diffStore struct {
	mu      sync.Mutex
	seq     int64
	max     int
	entries map[string]*diffEntry
	order   []string
}

func newDiffStore(max int) *diffStore {
	if max <= 0 {
		max = DefaultMaxAnalyses
	}
	return &diffStore{max: max, entries: make(map[string]*diffEntry)}
}

func (ds *diffStore) add(report *analysis.DiffReport) *diffEntry {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.seq++
	e := &diffEntry{id: fmt.Sprintf("d-%06d", ds.seq), report: report}
	ds.entries[e.id] = e
	ds.order = append(ds.order, e.id)
	for len(ds.entries) > ds.max {
		delete(ds.entries, ds.order[0])
		ds.order = ds.order[1:]
	}
	return e
}

func (ds *diffStore) get(id string) (*diffEntry, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	e, ok := ds.entries[id]
	return e, ok
}

// diffRequest is the JSON body of POST /v1/analysis/diff: each arm is a run
// ID (r-…, needs trace.events=true) or a retained analysis ID (a-…).
type diffRequest struct {
	A            string `json:"a"`
	B            string `json:"b"`
	WindowCycles int64  `json:"window_cycles,omitempty"`
	TopK         int    `json:"top_k,omitempty"`
}

// diffCreatedView is the POST response: the new diff ID, render links, and
// the full aligned report.
type diffCreatedView struct {
	Schema    string               `json:"schema"`
	ID        string               `json:"id"`
	Report    *analysis.DiffReport `json:"report"`
	Text      string               `json:"text_url"`
	Dashboard string               `json:"dashboard_url"`
}

// resolveArm turns a run or analysis ID into a columnar store. The returned
// code is the HTTP status to use on error.
func (s *Server) resolveArm(name, ref string) (*analysis.Store, int, error) {
	if e, ok := s.store.analysis(ref); ok {
		return e.store, 0, nil
	}
	if _, ok := s.store.Get(ref); !ok {
		return nil, http.StatusNotFound, fmt.Errorf("%s: unknown run or analysis %q", name, ref)
	}
	log, code, err := s.runLog(ref, http.StatusConflict)
	if err != nil {
		return nil, code, fmt.Errorf("%s: %w", name, err)
	}
	return analysis.FromLog(log), 0, nil
}

// parseArmBytes sniffs an uploaded arm: a binary analysis snapshot (any
// parbs.analysis/v* version) or a raw parbs.trace/v1 JSONL trace.
func parseArmBytes(name string, raw []byte) (*analysis.Store, error) {
	if bytes.HasPrefix(raw, []byte("parbs.analysis/v")) {
		st, err := analysis.ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: read snapshot: %w", name, err)
		}
		return st, nil
	}
	st, err := analysis.Ingest(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: ingest trace: %w", name, err)
	}
	return st, nil
}

// handleDiff computes a cross-run diff. Two submission forms:
//
//   - Content-Type application/json: {"a": "...", "b": "..."} where each arm
//     is a run ID or retained analysis ID; window_cycles/top_k in the body.
//   - Content-Type multipart/form-data: file parts "a" and "b", each a
//     binary analysis snapshot or raw JSONL trace; window_cycles/top_k come
//     from query parameters.
//
// Deltas are B − A throughout.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 2*s.maxUpload+1<<20)
	fail := func(code int, err error) {
		s.metrics.diffFailed()
		httpError(w, code, err)
	}
	var (
		sa, sb *analysis.Store
		opt    analysis.Options
	)
	switch ct := r.Header.Get("Content-Type"); {
	case strings.HasPrefix(ct, "application/json"):
		var req diffRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			fail(bodyErrorStatus(err), fmt.Errorf("parse request: %w", err))
			return
		}
		if req.A == "" || req.B == "" {
			fail(http.StatusBadRequest, fmt.Errorf(`both "a" and "b" are required (run or analysis IDs)`))
			return
		}
		var code int
		var err error
		if sa, code, err = s.resolveArm("a", req.A); err != nil {
			fail(code, err)
			return
		}
		if sb, code, err = s.resolveArm("b", req.B); err != nil {
			fail(code, err)
			return
		}
		opt = analysis.Options{WindowCycles: req.WindowCycles, TopK: req.TopK}
	case strings.HasPrefix(ct, "multipart/"):
		arm := func(name string) (*analysis.Store, int, error) {
			f, hdr, err := r.FormFile(name)
			if err != nil {
				return nil, bodyErrorStatus(err), fmt.Errorf("multipart part %q: %w", name, err)
			}
			defer f.Close()
			if hdr.Size > s.maxUpload {
				return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("multipart part %q exceeds %d bytes", name, s.maxUpload)
			}
			raw, err := io.ReadAll(f)
			if err != nil {
				return nil, http.StatusBadRequest, err
			}
			st, err := parseArmBytes(name, raw)
			return st, http.StatusBadRequest, err
		}
		var code int
		var err error
		if sa, code, err = arm("a"); err != nil {
			fail(code, err)
			return
		}
		if sb, code, err = arm("b"); err != nil {
			fail(code, err)
			return
		}
		if opt, err = analysisQueryOptions(r); err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
	default:
		fail(http.StatusBadRequest, fmt.Errorf("unsupported Content-Type %q: use application/json (IDs) or multipart/form-data (snapshot/trace uploads)", ct))
		return
	}

	e := s.diffs.add(analysis.Diff(sa, sb, opt))
	s.metrics.diffDone()
	writeJSON(w, http.StatusCreated, diffCreatedView{
		Schema:    analysis.DiffSchema,
		ID:        e.id,
		Report:    e.report,
		Text:      "/v1/diffs/" + e.id + "/report",
		Dashboard: "/v1/diffs/" + e.id + "/dashboard",
	})
}

func (s *Server) diffEntry(w http.ResponseWriter, r *http.Request) (*diffEntry, bool) {
	e, ok := s.diffs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown diff %q (evicted or never created)", r.PathValue("id")))
	}
	return e, ok
}

func (s *Server) handleDiffJSON(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.diffEntry(w, r); ok {
		writeJSON(w, http.StatusOK, e.report)
	}
}

func (s *Server) handleDiffText(w http.ResponseWriter, r *http.Request) {
	e, ok := s.diffEntry(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	e.report.WriteText(w)
}
