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
// events. Each follower renders the prefix as parbs.trace/v1 JSONL with its
// own trace.Cursor and feeds a LiveIngester. Consistency model: every
// pushed report equals the post-hoc report of the trace prefix ingested so
// far; once the run completes, the final report is byte-identical to
// analyzing the whole stored trace.

// liveSendInterval rate-limits intermediate report events; the final report
// after stream close is always sent.
const liveSendInterval = 250 * time.Millisecond

// liveFeed renders successive prefixes of one event log into a
// LiveIngester and counts the events ingested in the server's metrics.
type liveFeed struct {
	cur      trace.Cursor
	li       *analysis.LiveIngester
	metrics  *Metrics
	fed      int // bytes fed so far
	ingested int // events ingested so far, as last counted
}

func (s *Server) newLiveFeed() *liveFeed {
	return &liveFeed{li: analysis.NewLiveIngester(), metrics: s.metrics}
}

// Write feeds one rendered chunk. Event-line damage is absorbed (the prefix
// stays queryable); header damage surfaces as a nil report.
func (f *liveFeed) Write(p []byte) (int, error) {
	f.li.Feed(p)
	f.fed += len(p)
	return len(p), nil
}

// step ingests log's events past those already fed, the header line first,
// and reports whether it fed anything.
func (f *liveFeed) step(log *trace.Log) bool {
	before := f.fed
	f.cur.WriteNew(f, log)
	if n := f.li.Events(); n > f.ingested {
		f.metrics.observeIngest(int64(n - f.ingested))
		f.ingested = n
	}
	return f.fed > before
}

// finish ends the stream. A finished job's stored log, if it has one,
// holds the rest of the run and the true drop count (live headers carry
// zero).
func (f *liveFeed) finish(stored *trace.Log) {
	if stored != nil {
		f.step(stored)
		f.li.SetDropped(stored.Dropped)
	}
	f.li.Finalize()
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

	// Stream over: the stored log holds the rest of the run (all of it for
	// a cached replay, which never published a prefix) and the true drop
	// count.
	snap := j.snapshot()
	var stored *trace.Log
	if snap.Result != nil {
		stored = snap.Result.TraceLog
	}
	feed.finish(stored)
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
// Stateless: each request re-ingests the prefix published so far.
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
	feed := s.newLiveFeed()
	log, closed, _ := j.live.next()
	snap := j.snapshot()
	if closed && snap.Result != nil && snap.Result.TraceLog != nil {
		// Completed run: the stored log is authoritative (cached replays
		// never published a prefix) and carries the true drop count.
		feed.finish(snap.Result.TraceLog)
	} else if log != nil {
		feed.step(log)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	rep := feed.li.Report(opt)
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
