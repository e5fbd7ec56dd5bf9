package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// DefaultMaxAnalyses bounds the number of retained analysis results when
// Options.MaxAnalyses is zero. Each entry holds the columnar event store
// (for snapshots and re-analysis) plus the computed report, so the bound
// is deliberately small; their bytes also count against MaxResultBytes.
const DefaultMaxAnalyses = 32

// analysisEntry is one retained trace analysis: the ingested columnar
// store and the report computed from it at submission time. The Store
// retains entries (see Store.addAnalysis).
type analysisEntry struct {
	id     string
	store  *analysis.Store
	report *analysis.Report
}

// analyzeRequest is the JSON body of POST /v1/analysis when the trace is
// referenced by run ID rather than inlined.
type analyzeRequest struct {
	Run          string `json:"run"`
	WindowCycles int64  `json:"window_cycles,omitempty"`
	TopK         int    `json:"top_k,omitempty"`
}

// analysisCreatedView is the POST /v1/analysis response: the new
// analysis ID, links to its renderings, and the full report.
type analysisCreatedView struct {
	Schema    string           `json:"schema"`
	ID        string           `json:"id"`
	Report    *analysis.Report `json:"report"`
	Text      string           `json:"text_url"`
	Dashboard string           `json:"dashboard_url"`
	Snapshot  string           `json:"snapshot_url"`
}

// handleAnalyze ingests a parbs.trace/v1 JSONL trace and computes the
// windowed bottleneck report. Two submission forms:
//
//   - Content-Type application/json: {"run": "r-000001", ...} references a
//     completed job that was submitted with trace.events=true.
//   - any other Content-Type: the body IS the JSONL trace; window_cycles
//     and top_k come from query parameters.
//
// Truncated traces (dropped events, torn tail) are accepted: the report
// covers the recorded prefix and carries truncated=true.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxUpload)
	var (
		store *analysis.Store
		opt   analysis.Options
	)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var req analyzeRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, bodyErrorStatus(err), fmt.Errorf("parse request: %w", err))
			return
		}
		if req.Run == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf(`"run" is required in the JSON form (or POST the JSONL trace directly)`))
			return
		}
		log, code, err := s.runLog(req.Run, http.StatusConflict)
		if err != nil {
			httpError(w, code, err)
			return
		}
		store = analysis.FromLog(log)
		opt = analysis.Options{WindowCycles: req.WindowCycles, TopK: req.TopK}
	} else {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			httpError(w, bodyErrorStatus(err), fmt.Errorf("read trace: %w", err))
			return
		}
		if opt, err = analysisQueryOptions(r); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if store, err = analysis.Ingest(bytes.NewReader(body)); err != nil {
			s.metrics.analysisFailed()
			httpError(w, http.StatusBadRequest, fmt.Errorf("ingest trace: %w", err))
			return
		}
	}
	e := s.store.addAnalysis(store, store.Analyze(opt))
	s.metrics.analysisDone()
	writeJSON(w, http.StatusCreated, analysisCreatedView{
		Schema:    analysis.Schema,
		ID:        e.id,
		Report:    e.report,
		Text:      "/v1/analysis/" + e.id + "/report",
		Dashboard: "/v1/analysis/" + e.id + "/dashboard",
		Snapshot:  "/v1/analysis/" + e.id + "/snapshot",
	})
}

func (s *Server) analysisEntry(w http.ResponseWriter, r *http.Request) (*analysisEntry, bool) {
	e, ok := s.store.analysis(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown analysis %q (evicted or never created)", r.PathValue("id")))
	}
	return e, ok
}

func (s *Server) handleAnalysisJSON(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.analysisEntry(w, r); ok {
		writeJSON(w, http.StatusOK, e.report)
	}
}

func (s *Server) handleAnalysisText(w http.ResponseWriter, r *http.Request) {
	e, ok := s.analysisEntry(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	e.report.WriteText(w)
}

func (s *Server) handleAnalysisSnapshot(w http.ResponseWriter, r *http.Request) {
	e, ok := s.analysisEntry(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.parbs-analysis", e.id))
	e.store.WriteSnapshot(w)
}

// runLog returns the stored event log of the run ref names, or the HTTP
// status to answer when there is none: 404 for an unknown run, 409 for one
// not done, 410 once the retention budget evicted its payload, and noTrace
// for one run without trace.events. Resolving counts as a use of the
// payload.
func (s *Server) runLog(ref string, noTrace int) (*trace.Log, int, error) {
	j, ok := s.store.Get(ref)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown run %q", ref)
	}
	snap := s.store.Use(j)
	if snap.Status != StatusDone {
		return nil, http.StatusConflict, fmt.Errorf("run %s is %s, not done", ref, snap.Status)
	}
	if snap.Evicted {
		return nil, http.StatusGone, errEvicted(ref)
	}
	if j.Spec.Trace == nil || !j.Spec.Trace.Events || snap.Result == nil || snap.Result.TraceLog == nil {
		return nil, noTrace, fmt.Errorf("run %s has no event trace; submit it with trace.events=true", ref)
	}
	return snap.Result.TraceLog, 0, nil
}

// handleRunTrace serves a completed run's event log as parbs.trace/v1
// JSONL, rendered from the stored log on each request.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	log, code, err := s.runLog(r.PathValue("id"), http.StatusNotFound)
	if err != nil {
		httpError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	trace.WriteJSONL(w, log)
}

// maxUploadBytes bounds one uploaded trace or snapshot: a POST
// /v1/analysis body, or one arm of a POST /v1/analysis/diff upload (whose
// whole body may hold two plus multipart framing). Larger bodies get 413.
const maxUploadBytes = 256 << 20

// bodyErrorStatus maps a request-body read error to its status: 413 when
// the body exceeded its http.MaxBytesReader limit, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func queryInt64(r *http.Request, key string) (int64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("query %s=%q: want a non-negative integer", key, v)
	}
	return n, nil
}
