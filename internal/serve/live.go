package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// Live analysis: GET /v1/analysis/{id}/live follows a run's trace stream as
// it is produced, re-analyzing the growing prefix and pushing "report" SSE
// events. Consistency model: every pushed report equals the post-hoc report
// of the trace prefix received so far; once the run completes, the final
// report event is byte-identical to analyzing the whole stored trace.

// liveSendInterval rate-limits intermediate report events; the final report
// after stream close is always sent.
const liveSendInterval = 250 * time.Millisecond

// firstLine returns the bytes up to (not including) the first newline.
func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i]
	}
	return b
}

// liveJob resolves the {id} run and its live trace buffer, writing the HTTP
// error itself on failure: 404, 409 for a run without trace events, 410
// once the retention budget evicted the run's payload.
func (s *Server) liveJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", r.PathValue("id")))
		return nil, false
	}
	if j.live == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("run %s has no event trace; submit it with trace.events=true", j.ID))
		return nil, false
	}
	if s.store.Use(j).Evicted {
		httpError(w, http.StatusGone, errEvicted(j.ID))
		return nil, false
	}
	return j, true
}

func analysisQueryOptions(r *http.Request) (analysis.Options, error) {
	var opt analysis.Options
	var err error
	if opt.WindowCycles, err = queryInt64(r, "window_cycles"); err != nil {
		return opt, err
	}
	topK, err := queryInt64(r, "top_k")
	if err != nil {
		return opt, err
	}
	opt.TopK = int(topK)
	return opt, nil
}

// handleAnalysisLive streams the evolving analysis of a running job as SSE:
// "report" events carry the windowed report of the prefix ingested so far,
// then one final "report" (converged with the completed trace) and a "done"
// event. Works on completed runs too — one report, then done.
func (s *Server) handleAnalysisLive(w http.ResponseWriter, r *http.Request) {
	j, ok := s.liveJob(w, r)
	if !ok {
		return
	}
	opt, err := analysisQueryOptions(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.metrics.liveSessionStart()
	defer s.metrics.liveSessionEnd()
	// Hold the buffer until this session has read it to the end.
	defer j.live.follow()()

	li := analysis.NewLiveIngester()
	ingested := 0
	feed := func(chunk []byte) {
		// Event-line damage is absorbed (the prefix stays queryable); header
		// damage surfaces as a nil report below.
		li.Feed(chunk)
		if n := li.Events(); n > ingested {
			s.metrics.observeIngest(int64(n - ingested))
			ingested = n
		}
	}
	send := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}

	var lastSent time.Time
	from := 0
	for {
		data, closed, wait := j.live.next(from)
		if len(data) > 0 {
			from += len(data)
			feed(data)
			if now := time.Now(); now.Sub(lastSent) >= liveSendInterval {
				if rep := li.Report(opt); rep != nil {
					send("report", rep)
					lastSent = now
				}
			}
		}
		if closed {
			break
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}

	// Stream over: reconcile against the completed job. Cached replays never
	// streamed a byte (feed the stored trace whole), and live stream headers
	// carry events=0/dropped=0 — the finished log's header has the truth.
	snap := j.snapshot()
	if snap.Result != nil && len(snap.Result.TraceEvents) > 0 {
		if from == 0 {
			feed(snap.Result.TraceEvents)
		}
		if _, dropped, _, err := trace.ParseHeader(firstLine(snap.Result.TraceEvents)); err == nil {
			li.SetDropped(dropped)
		}
	}
	li.Finalize()
	rep := li.Report(opt)
	if rep == nil {
		msg := "no trace header received"
		if snap.Err != "" {
			msg = "run failed: " + snap.Err
		}
		send("error", map[string]string{"error": msg})
		return
	}
	send("report", rep)
	send("done", map[string]any{"events": li.Events(), "truncated": rep.Truncated})
}

// liveWaitingPage renders while the run has not yet produced its header line.
const liveWaitingPage = `<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>live analysis %s</title></head>
<body style="font: 14px system-ui, sans-serif; margin: 2rem">
<h1>Live analysis %s</h1><p>Waiting for the first trace chunk&hellip;</p></body></html>
`

// handleAnalysisLiveDashboard serves the SVG dashboard of the run's current
// trace prefix, auto-refreshing while the run is still producing events.
// Stateless: each request re-ingests the prefix buffered so far.
func (s *Server) handleAnalysisLiveDashboard(w http.ResponseWriter, r *http.Request) {
	j, ok := s.liveJob(w, r)
	if !ok {
		return
	}
	opt, err := analysisQueryOptions(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	li := analysis.NewLiveIngester()
	data, closed, _ := j.live.next(0)
	snap := j.snapshot()
	if closed && snap.Result != nil && len(snap.Result.TraceEvents) > 0 {
		// Completed run: the stored trace is authoritative (cached replays
		// never streamed) and its header carries the true drop count.
		li.Feed(snap.Result.TraceEvents)
		if _, dropped, _, err := trace.ParseHeader(firstLine(snap.Result.TraceEvents)); err == nil {
			li.SetDropped(dropped)
		}
		li.Finalize()
	} else if len(data) > 0 {
		li.Feed(data)
	}
	s.metrics.observeIngest(int64(li.Events()))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	rep := li.Report(opt)
	if rep == nil {
		fmt.Fprintf(w, liveWaitingPage, j.ID, j.ID)
		return
	}
	v := buildDashView(j.ID, rep)
	v.Live = true
	if !closed {
		v.RefreshSeconds = 2
	}
	dashTmpl.Execute(w, v)
}
