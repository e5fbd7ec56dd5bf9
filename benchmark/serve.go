package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	parbs "repro"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Serve-traced jobs are shorter than the paper's run length so that a run
// holds enough ops for a tail percentile.
const (
	serveMeasureCycles = 300_000
	serveWarmupCycles  = 50_000
	// serveOpsPerSecond sizes a serve-traced run: the op count is fixed by
	// --seconds, not by wall time, because every op grows the server's
	// result cache and so the process's memory.
	serveOpsPerSecond = 2.0
)

func serveOps(seconds int) int {
	n := int(float64(seconds)*serveOpsPerSecond + 0.5)
	return max(n, 2*minBeyond)
}

// serveSpec is the wire form of POST /v1/runs that the benchmark sends.
type serveSpec struct {
	Client    string         `json:"client"`
	System    map[string]any `json:"system"`
	Workload  map[string]any `json:"workload"`
	Scheduler map[string]any `json:"scheduler"`
	Telemetry map[string]any `json:"telemetry,omitempty"`
	Trace     map[string]any `json:"trace,omitempty"`
}

func newServeSpec(seed int64, benchmarks []string, scheduler string, traced bool) serveSpec {
	sp := serveSpec{
		Client: "bench",
		System: map[string]any{"cores": 4, "measure_cycles": serveMeasureCycles,
			"warmup_cycles": serveWarmupCycles, "seed": seed},
		Workload:  map[string]any{"benchmarks": benchmarks},
		Scheduler: map[string]any{"name": scheduler},
	}
	if traced {
		sp.Telemetry = map[string]any{}
		sp.Trace = map[string]any{"events": true}
	}
	return sp
}

// serveSystem is the parbs.System a serve-traced spec with system seed
// seed lowers to.
func serveSystem(seed int64) parbs.System {
	sys := parbs.DefaultSystem(4)
	sys.MeasureCycles = serveMeasureCycles
	sys.WarmupCycles = serveWarmupCycles
	sys.Seed = seed
	return sys
}

// servePass is how many serve-traced ops pass before a (mix, scheduler)
// pair repeats: 14 stratified mixes × 5 schedulers.
const servePass = 70

// serveTwin is the op-index offset of an op's twin: op i+serveTwin runs op
// i's mix and scheduler with address streams from another seed, so it
// costs about the same but is not a result-cache hit.
const serveTwin = 1000 * servePass

// serveStreamSpec is op i's job: scheduler i mod 5 on the (i mod 14)-th
// stratified mix, so the first servePass ops never repeat a (mix,
// scheduler) pair, with the address streams drawn from seed. Each later
// pass moves to a seed of its own.
func serveStreamSpec(seed int64, i int) (sysSeed int64, benchmarks []string, sched string) {
	scheds := parbs.SchedulerNames()
	mixes := stratifiedMixes()
	return seed + int64(i/servePass)*1_000_003, mixes[i%len(mixes)].Benchmarks(), scheds[i%len(scheds)]
}

// serveBench drives an in-process parbs-serve over loopback HTTP.
type serveBench struct {
	seed   int64
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func setupServe(seed int64, rec *recorder) (bench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	b := &serveBench{
		seed:   seed,
		srv:    serve.New(serve.Options{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func() { b.served <- b.hs.Serve(ln) }()
	// Warm the server's alone-baseline cache with untraced jobs covering
	// every benchmark, then run one traced warm-up op.
	names := parbs.BenchmarkNames()
	for start := 0; start < len(names); start += 4 {
		sp := rec.begin("serve.alone_warm")
		_, err := b.job(newServeSpec(seed, names[start:start+4], "FR-FCFS", false), nil)
		rec.end(sp)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm alone baselines: %w", err)
		}
	}
	warm := newServeSpec(seed, []string{"lbm", "lbm", "lbm", "lbm"}, "PAR-BS", true)
	if _, err := b.job(warm, rec); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

func (b *serveBench) listLen() int { return 0 }

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // best effort: the listener is ours alone
	<-b.served
	_ = b.srv.Shutdown(ctx)
	b.client.CloseIdleConnections()
}

func (b *serveBench) op(i int, rec *recorder) (opResult, error) {
	sysSeed, benchmarks, sched := serveStreamSpec(b.seed, i)
	return b.job(newServeSpec(sysSeed, benchmarks, sched, true), rec)
}

// jobView is the part of a parbs-serve job view the benchmark reads.
type jobView struct {
	ID         string          `json:"id"`
	Status     string          `json:"status"`
	Cached     bool            `json:"cached"`
	Submitted  time.Time       `json:"submitted_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
	Report     json.RawMessage `json:"report"`
	Trace      json.RawMessage `json:"trace"`
	Error      string          `json:"error"`
}

// job runs one closed-loop job: submit, follow the event stream to done,
// fetch the result and, for traced jobs, analyze the stored trace. Checks
// that do not change what the client does run after the timed calls.
func (b *serveBench) job(spec serveSpec, rec *recorder) (opResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return opResult{}, err
	}
	sp := rec.begin("serve.submit")
	raw, err := b.call("POST", "/v1/runs", "application/json", body)
	rec.end(sp)
	if err != nil {
		return opResult{}, err
	}
	var sub jobView
	if err := json.Unmarshal(raw, &sub); err != nil {
		return opResult{}, fmt.Errorf("submit response: %w", err)
	}

	sp = rec.begin("serve.follow")
	doneAt, err := b.follow(sub.ID)
	rec.end(sp)
	if err != nil {
		return opResult{}, err
	}

	sp = rec.begin("serve.result_get")
	raw, err = b.call("GET", "/v1/runs/"+sub.ID, "", nil)
	rec.end(sp)
	if err != nil {
		return opResult{}, err
	}
	resultBytes := len(raw)
	var view jobView
	if err := json.Unmarshal(raw, &view); err != nil {
		return opResult{}, fmt.Errorf("result: %w", err)
	}

	var an analysisView
	if spec.Trace != nil {
		sp = rec.begin("serve.analysis")
		raw, err = b.call("POST", "/v1/analysis", "application/json", []byte(`{"run":"`+sub.ID+`"}`))
		rec.end(sp)
		if err != nil {
			return opResult{}, err
		}
		if err := json.Unmarshal(raw, &an); err != nil {
			return opResult{}, fmt.Errorf("analysis: %w", err)
		}
	}

	if view.Status != "done" || view.Error != "" {
		return opResult{}, fmt.Errorf("job %s ended %s: %s", view.ID, view.Status, view.Error)
	}
	if sub.Cached || view.Cached {
		return opResult{}, fmt.Errorf("job %s was served from the result cache", view.ID)
	}
	if view.StartedAt == nil || view.FinishedAt == nil {
		return opResult{}, fmt.Errorf("job %s has no start or finish time", view.ID)
	}
	// Server-side phases, from the job's own timestamps (same host clock).
	rec.addAt("serve.queue_wait", view.Submitted, *view.StartedAt)
	rec.addAt("serve.run", *view.StartedAt, *view.FinishedAt)
	rec.addAt("serve.notify", *view.FinishedAt, doneAt)
	rec.count("serve.result_bytes", float64(resultBytes))

	var d digester
	d.str(string(view.Report))
	if spec.Trace != nil {
		if err := b.checkTrace(view, an); err != nil {
			return opResult{}, err
		}
		d.int(int64(an.Report.Events))
		d.int(an.Report.Requests)
	}
	return opResult{digest: d.sum(), cycles: runCycles(serveSystem(0))}, nil
}

// analysisView is the part of a POST /v1/analysis response the benchmark
// reads.
type analysisView struct {
	ID     string `json:"id"`
	Report struct {
		Events          int   `json:"events"`
		Truncated       bool  `json:"truncated"`
		IngestTruncated bool  `json:"ingest_truncated"`
		Dropped         int64 `json:"dropped"`
		Requests        int64 `json:"requests"`
	} `json:"report"`
}

// checkTrace verifies a traced job: the tracer dropped nothing, the
// analysis ingest was whole, and it saw as many events as the stored
// trace's header promises.
func (b *serveBench) checkTrace(view jobView, an analysisView) error {
	var chrome struct {
		OtherData struct {
			Dropped *int64 `json:"dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(view.Trace, &chrome); err != nil {
		return fmt.Errorf("job %s trace: %w", view.ID, err)
	}
	if chrome.OtherData.Dropped == nil || *chrome.OtherData.Dropped != 0 {
		return fmt.Errorf("job %s: tracer dropped events (%v)", view.ID, chrome.OtherData.Dropped)
	}
	if an.Report.Truncated || an.Report.IngestTruncated || an.Report.Dropped != 0 {
		return fmt.Errorf("analysis %s: truncated ingest", an.ID)
	}
	_, dropped, events, err := b.traceHeader(view.ID)
	if err != nil {
		return err
	}
	if dropped != 0 || events != an.Report.Events || events == 0 {
		return fmt.Errorf("job %s: trace header has %d events (%d dropped), analysis saw %d",
			view.ID, events, dropped, an.Report.Events)
	}
	return nil
}

// traceHeader reads only the header line of a job's stored JSONL trace.
func (b *serveBench) traceHeader(id string) (trace.Meta, int64, int, error) {
	resp, err := b.client.Get(b.base + "/v1/runs/" + id + "/trace")
	if err != nil {
		return trace.Meta{}, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return trace.Meta{}, 0, 0, fmt.Errorf("GET trace of %s: status %d", id, resp.StatusCode)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		return trace.Meta{}, 0, 0, fmt.Errorf("trace header of %s: %w", id, err)
	}
	return trace.ParseHeader(line)
}

// call makes one request and returns the body, failing on a non-2xx
// status.
func (b *serveBench) call(method, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// follow reads the job's SSE stream until its done event and returns when
// that event arrived.
func (b *serveBench) follow(id string) (time.Time, error) {
	resp, err := b.client.Get(b.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return time.Time{}, fmt.Errorf("GET events of %s: status %d", id, resp.StatusCode)
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // the rest of a long data line
		}
		if err != nil {
			return time.Time{}, fmt.Errorf("events of %s ended before done: %w", id, err)
		}
		if bytes.Equal(bytes.TrimSpace(line), []byte("event: done")) {
			return time.Now(), nil
		}
	}
}
