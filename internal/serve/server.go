package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	parbs "repro"
)

// Schema identifies the job-status wire format served at GET /v1/runs/{id}.
const Schema = "parbs.serve/v1"

// Admission selects the admission-queue scheduling discipline.
type Admission string

// Admission disciplines.
const (
	// AdmissionPARBS batches per client and ranks Max–Total (default).
	AdmissionPARBS Admission = "parbs"
	// AdmissionFIFO dispatches in arrival order — the fairness baseline.
	AdmissionFIFO Admission = "fifo"
)

// Options configures a Server. The zero value selects the defaults.
type Options struct {
	// Workers sizes the simulation worker pool (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the admission queue; submissions beyond it are
	// rejected with 429 (default 64).
	QueueCap int
	// Admission selects the queue discipline (default AdmissionPARBS).
	Admission Admission
	// MarkingCap bounds jobs marked per client per admission batch
	// (default 5, the paper's Marking-Cap).
	MarkingCap int
	// DefaultTimeout caps every job's execution; a spec's timeout_ms may
	// shorten it but never lift it. 0 = no cap.
	DefaultTimeout time.Duration
	// MaxJobs bounds the job table: past it, admitting a job evicts the
	// oldest terminal records (default DefaultMaxJobs; negative =
	// unbounded). An evicted record's payload stays retained, and still
	// answers cache hits, until MaxResultBytes evicts it.
	MaxJobs int
	// MaxResultBytes bounds the payloads retained after jobs finish and
	// the retained trace analyses: the result cache and the job records
	// share one charge per content hash, each analysis is charged its
	// columns and report, and all are evicted least recently used first
	// (default DefaultMaxResultBytes; negative = unbounded).
	MaxResultBytes int64
	// MaxAnalyses bounds the number of retained trace-analysis results,
	// oldest evicted first (default DefaultMaxAnalyses).
	MaxAnalyses int
	// Runner executes jobs (default SimulationRunner with a shared
	// AloneCache). Tests substitute stubs.
	Runner Runner
}

// Server is the simulation service: admission queue, worker pool, job
// store, result cache, and HTTP API. Construct with New, mount Handler,
// and call Shutdown to drain.
type Server struct {
	opts    Options
	store   *Store
	diffs   *diffStore
	queue   *Queue
	metrics *Metrics
	pool    *pool
	mux     *http.ServeMux
	// maxUpload bounds one uploaded trace or snapshot (maxUploadBytes;
	// tests lower it).
	maxUpload int64

	// baseCtx parents every job execution; cancel is the hard-abort used
	// when a graceful drain overruns its deadline.
	baseCtx context.Context
	cancel  context.CancelFunc

	draining    atomic.Bool
	dispatchSeq atomic.Int64
}

// New starts a Server: the worker pool is live on return.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.Admission == "" {
		opts.Admission = AdmissionPARBS
	}
	if opts.Runner == nil {
		opts.Runner = SimulationRunner(parbs.NewAloneCache())
	}
	metrics := NewMetrics()
	var adm admitter
	switch opts.Admission {
	case AdmissionFIFO:
		adm = &fifoAdmitter{}
	default:
		p := newParbsAdmitter(opts.MarkingCap)
		p.onDrained = metrics.observeBatch
		adm = p
	}
	store := NewStore(opts.MaxJobs, opts.MaxResultBytes)
	if opts.MaxAnalyses > 0 {
		store.maxAnalyses = opts.MaxAnalyses
	}
	s := &Server{
		opts:    opts,
		store:   store,
		diffs:   newDiffStore(opts.MaxAnalyses),
		metrics: metrics,
		queue:   newQueue(adm, opts.QueueCap),

		maxUpload: maxUploadBytes,
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.pool = startPool(opts.Workers, s.queue, s.runJob)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("POST /v1/analysis", s.handleAnalyze)
	// Diff GETs live under /v1/diffs: a literal "diff" segment under
	// /v1/analysis would be ambiguous against the {id} wildcard routes.
	s.mux.HandleFunc("POST /v1/analysis/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/diffs/{id}", s.handleDiffJSON)
	s.mux.HandleFunc("GET /v1/diffs/{id}/report", s.handleDiffText)
	s.mux.HandleFunc("GET /v1/diffs/{id}/dashboard", s.handleDiffDashboard)
	s.mux.HandleFunc("GET /v1/analysis/{id}", s.handleAnalysisJSON)
	s.mux.HandleFunc("GET /v1/analysis/{id}/report", s.handleAnalysisText)
	s.mux.HandleFunc("GET /v1/analysis/{id}/snapshot", s.handleAnalysisSnapshot)
	s.mux.HandleFunc("GET /v1/analysis/{id}/dashboard", s.handleAnalysisDashboard)
	s.mux.HandleFunc("GET /v1/analysis/{id}/live", s.handleAnalysisLive)
	s.mux.HandleFunc("GET /v1/analysis/{id}/live/dashboard", s.handleAnalysisLiveDashboard)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains gracefully: admissions stop (503/429), every already
// accepted job still runs to completion, and the worker pool exits. If ctx
// expires first, in-flight and remaining jobs are hard-aborted through
// context cancellation (they finish in the failed state) and the error is
// ctx's. Shutdown does not close HTTP listeners — that is the caller's
// http.Server.Shutdown, sequenced after this drain so SSE streams end.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.pool.wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // hard abort: jobs observe cancellation at their next checkpoint
		<-done
		return ctx.Err()
	}
}

// runJob executes one dispatched job on a worker, with panic recovery and
// deadline enforcement.
func (s *Server) runJob(j *Job) {
	seq := s.dispatchSeq.Add(1)
	j.start(seq, time.Now())
	ctx := s.baseCtx
	timeout := s.opts.DefaultTimeout
	if t := j.Spec.timeout(); t > 0 && (timeout <= 0 || t < timeout) {
		timeout = t
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := s.safeRun(ctx, j)
	if err == nil {
		// Validate the artifacts once here; every response then splices
		// them in unscanned.
		res, err = publish(res)
	}
	if err == nil {
		// Retain before finishing, so a resubmission after the job is seen
		// done is a cache hit.
		res = s.store.Publish(j, res)
	}
	now := time.Now()
	j.finish(res, err, now)
	snap := j.snapshot()
	if err != nil {
		s.metrics.jobFailed(j.Client, snap.Wait(now))
		return
	}
	s.metrics.jobCompleted(j.Client, snap.Wait(now))
	s.metrics.observeRun(j.Spec.Scheduler.Name, now.Sub(snap.StartedAt))
}

// safeRun invokes the Runner, converting panics into job failures so one
// poisoned job cannot take a worker (or the server) down.
func (s *Server) safeRun(ctx context.Context, j *Job) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("job panicked: %v", p)
		}
	}()
	sink := Sink{
		Progress: func(p parbs.Progress) {
			s.metrics.observeOccupancy(p)
			j.subs.publish(p)
		},
	}
	if j.live != nil {
		sink.TraceLog = j.live.publish
	}
	return s.opts.Runner(ctx, j.Spec, sink)
}

// httpError writes a JSON error payload.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON serves v indented by two spaces. It encodes before writing the
// header, so a value that cannot be encoded becomes a 500.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// maxSpecBytes bounds a POST /v1/runs body; a spec is a few hundred bytes.
const maxSpecBytes = 1 << 20

// handleSubmit admits one job: 200 with the completed view on a cache hit,
// 202 on admission, 400 on a malformed spec, 413 on a body over
// maxSpecBytes, 429 on backpressure, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, ErrShuttingDown)
		return
	}
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, bodyErrorStatus(err), fmt.Errorf("parse spec: %w", err))
		return
	}
	if err := spec.normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Content-hash replay: an identical completed simulation answers
	// instantly, no queue slot, no simulation.
	if j, ok := s.store.Replay(spec, time.Now()); ok {
		s.metrics.jobAccepted()
		s.metrics.cacheHit()
		s.metrics.jobCompleted(j.Client, 0)
		writeView(w, http.StatusOK, j, j.snapshot())
		return
	}
	j := s.store.NewJob(spec, time.Now())
	if err := s.queue.Add(j); err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, ErrQueueFull) {
			code = http.StatusTooManyRequests
		}
		s.metrics.jobRejected()
		httpError(w, code, err)
		return
	}
	s.metrics.jobAccepted()
	writeView(w, http.StatusAccepted, j, j.snapshot())
}

// handleGet serves a job's view: 200, or 410 with the record's view (no
// artifacts, "evicted": true) once the retention budget dropped its payload.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", r.PathValue("id")))
		return
	}
	snap := s.store.Use(j)
	code := http.StatusOK
	if snap.Evicted {
		code = http.StatusGone
	}
	writeView(w, code, j, snap)
}

// errEvicted is the 410 error of a payload endpoint on an evicted run.
func errEvicted(id string) error {
	return fmt.Errorf("run %s's result was evicted by the server's retention budget; resubmit the spec to run it again", id)
}

// progressView is the SSE wire form of a parbs.Progress heartbeat.
type progressView struct {
	Phase          string `json:"phase"`
	CPUCycles      int64  `json:"cpu_cycles"`
	TotalCPUCycles int64  `json:"total_cpu_cycles"`
	CommandsIssued int64  `json:"commands_issued"`
	PendingReads   int    `json:"pending_reads"`
	// PendingPerChannel is the per-channel request-buffer occupancy on
	// Independent-channel systems; omitted under Lockstep.
	PendingPerChannel []int `json:"pending_per_channel,omitempty"`
}

func progressViewOf(p parbs.Progress) progressView {
	return progressView{
		Phase:             p.Phase,
		CPUCycles:         p.CPUCycles,
		TotalCPUCycles:    p.TotalCPUCycles,
		CommandsIssued:    p.CommandsIssued,
		PendingReads:      p.PendingReads,
		PendingPerChannel: p.PendingPerChannel,
	}
}

// handleEvents streams a job's progress as Server-Sent Events: "progress"
// events with heartbeat JSON, then one final "done" event carrying the
// job's terminal view. A run whose payload was already evicted gets 410;
// one evicted during the stream ends with a done view marked evicted.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", r.PathValue("id")))
		return
	}
	if j.snapshot().Evicted {
		httpError(w, http.StatusGone, errEvicted(j.ID))
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

	// Subscribe before the terminal-state check so a completion between the
	// two cannot be missed.
	ch, unsubscribe := j.subs.subscribe()
	defer unsubscribe()
	sendDone := func() {
		writeDoneEvent(w, j, j.snapshot())
		flusher.Flush()
	}
	for {
		select {
		case p, open := <-ch:
			if !open {
				sendDone()
				return
			}
			data, _ := json.Marshal(progressViewOf(p))
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
			flusher.Flush()
		case <-j.done:
			// Drain any last buffered heartbeat, then finish.
			select {
			case p, open := <-ch:
				if open {
					data, _ := json.Marshal(progressViewOf(p))
					fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
				}
			default:
			}
			sendDone()
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	retained, evicted := s.store.Retention()
	s.metrics.render(w, gauges{
		queueDepth:     s.queue.Depth(),
		batchesFormed:  s.queue.Batches(),
		retainedBytes:  retained,
		resultsEvicted: evicted,
	})
}
