package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// Live analysis: GET /v1/analysis/{id}/live follows a run's event log as it
// is recorded, re-analyzing the growing prefix and pushing "report" SSE
// events. Each follower feeds the typed prefixes it reads to its own
// LiveIngester, which appends only the events past those it holds.
// Consistency model: every pushed report equals analysis.FromLog of the
// prefix fed so far; once the run completes, the final report is
// byte-identical to analyzing the stored log.

// liveSendInterval rate-limits intermediate report events; the final report
// after stream close is always sent.
const liveSendInterval = 250 * time.Millisecond

// liveFeed feeds successive prefixes of one event log into a LiveIngester
// and counts the events ingested in the server's metrics.
type liveFeed struct {
	li       *analysis.LiveIngester
	metrics  *Metrics
	ingested int // events ingested so far, -1 before the first log
}

func (s *Server) newLiveFeed() *liveFeed {
	return &liveFeed{li: analysis.NewLiveIngester(), metrics: s.metrics, ingested: -1}
}

// step ingests log's events past those already fed and reports whether the
// ingester took anything: the first log, or new events.
func (f *liveFeed) step(log *trace.Log) bool {
	f.li.FeedLog(log)
	n := f.li.Events()
	if n == f.ingested {
		return false
	}
	f.metrics.observeIngest(int64(n - max(f.ingested, 0)))
	f.ingested = n
	return true
}

// liveJob resolves the {id} run and checks that it publishes a live
// prefix, writing the HTTP error itself on failure: 404, 409 for a run
// without trace events, 410 once the retention budget evicted the run's
// payload.
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

	feed := s.newLiveFeed()
	li := feed.li
	send := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}

	var lastSent time.Time
	for {
		log, closed, wait := j.live.next()
		if log != nil && feed.step(log) {
			if now := time.Now(); now.Sub(lastSent) >= liveSendInterval {
				send("report", li.Report(opt))
				lastSent = now
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

	// Stream over: the stored log holds the rest of the run (all of it for
	// a cached replay, which never published a prefix).
	snap := j.snapshot()
	if snap.Result != nil && snap.Result.TraceLog != nil {
		feed.step(snap.Result.TraceLog)
	}
	rep := li.Report(opt)
	if rep == nil {
		msg := "no trace events received"
		if snap.Err != "" {
			msg = "run failed: " + snap.Err
		}
		send("error", map[string]string{"error": msg})
		return
	}
	send("report", rep)
	send("done", map[string]any{"events": li.Events(), "truncated": rep.Truncated})
}

// liveWaitingPage renders while the run has not yet published a prefix.
const liveWaitingPage = `<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>live analysis %s</title></head>
<body style="font: 14px system-ui, sans-serif; margin: 2rem">
<h1>Live analysis %s</h1><p>Waiting for the first trace events&hellip;</p></body></html>
`

// handleAnalysisLiveDashboard serves the SVG dashboard of the run's current
// trace prefix, auto-refreshing while the run is still producing events.
// Stateless: each request analyzes the prefix published so far.
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
	log, closed, _ := j.live.next()
	if snap := j.snapshot(); closed && snap.Result != nil && snap.Result.TraceLog != nil {
		// Completed run: the stored log is authoritative (cached replays
		// never published a prefix).
		log = snap.Result.TraceLog
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if log == nil {
		fmt.Fprintf(w, liveWaitingPage, j.ID, j.ID)
		return
	}
	s.metrics.observeIngest(int64(len(log.Events)))
	v := buildDashView(j.ID, analysis.FromLog(log).Analyze(opt))
	v.Live = true
	if !closed {
		v.RefreshSeconds = 2
	}
	dashTmpl.Execute(w, v)
}
