package serve

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	parbs "repro"
)

// waitBuckets is the number of power-of-two wait histogram buckets:
// bucket 0 counts sub-millisecond waits, bucket i>0 counts waits in
// [2^(i-1), 2^i) milliseconds, the last bucket open-ended (~17 min and up).
const waitBuckets = 21

// waitHist is one client's queue-wait histogram.
type waitHist struct {
	buckets [waitBuckets]int64
	count   int64
	sumMS   int64
	maxMS   int64
}

func (h *waitHist) observe(d time.Duration) {
	ms := d.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	b := bits.Len64(uint64(ms))
	if b >= waitBuckets {
		b = waitBuckets - 1
	}
	h.buckets[b]++
	h.count++
	h.sumMS += ms
	if ms > h.maxMS {
		h.maxMS = ms
	}
}

// durSummary is a count/sum/max duration summary (no buckets).
type durSummary struct {
	count int64
	sumMS int64
	maxMS int64
}

func (s *durSummary) observe(d time.Duration) {
	ms := d.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	s.count++
	s.sumMS += ms
	if ms > s.maxMS {
		s.maxMS = ms
	}
}

// Metrics holds the service counters exported at /metrics. All methods are
// safe for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	accepted  int64
	rejected  int64
	completed int64
	failed    int64
	cacheHits int64
	// analyses counts trace analyses computed via POST /v1/analysis;
	// analysisErrs counts submissions whose trace failed to ingest.
	analyses     int64
	analysisErrs int64
	// liveSessions gauges currently-open live-analysis SSE followers;
	// ingestEvents counts trace events consumed by live ingesters.
	liveSessions int64
	ingestEvents int64
	// diffs counts cross-run diff reports computed via POST
	// /v1/analysis/diff; diffErrs counts submissions that failed to resolve
	// or ingest either arm.
	diffs    int64
	diffErrs int64
	waits    map[string]*waitHist
	// runs holds per-policy simulation run durations (dispatch to finish)
	// for successfully completed jobs.
	runs map[string]*waitHist
	// batchDur summarizes admission batch lifetimes (formation to drain).
	batchDur durSummary
	// pending is the most recent heartbeat's per-channel request-buffer
	// occupancy (index = channel). Lockstep runs report one ganged stream
	// as channel 0; Independent runs report every channel. Last-writer-wins
	// across concurrent jobs — it is a liveness gauge, not an accumulator.
	pending []int64
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{
		start: time.Now(),
		waits: make(map[string]*waitHist),
		runs:  make(map[string]*waitHist),
	}
}

func (m *Metrics) jobAccepted() { m.add(&m.accepted) }
func (m *Metrics) jobRejected() { m.add(&m.rejected) }

func (m *Metrics) jobCompleted(client string, wait time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.observeWait(client, wait)
}

func (m *Metrics) jobFailed(client string, wait time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed++
	m.observeWait(client, wait)
}

func (m *Metrics) cacheHit() { m.add(&m.cacheHits) }

func (m *Metrics) analysisDone()   { m.add(&m.analyses) }
func (m *Metrics) analysisFailed() { m.add(&m.analysisErrs) }

func (m *Metrics) liveSessionStart() { m.add(&m.liveSessions) }
func (m *Metrics) liveSessionEnd() {
	m.mu.Lock()
	m.liveSessions--
	m.mu.Unlock()
}

// observeIngest records n trace events consumed by a live ingester.
func (m *Metrics) observeIngest(n int64) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.ingestEvents += n
	m.mu.Unlock()
}

func (m *Metrics) diffDone()   { m.add(&m.diffs) }
func (m *Metrics) diffFailed() { m.add(&m.diffErrs) }

// observeRun records a successful job's simulation duration under its
// policy name.
func (m *Metrics) observeRun(policy string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.runs[policy]
	if h == nil {
		h = &waitHist{}
		m.runs[policy] = h
	}
	h.observe(d)
}

// observeBatch records one admission batch's formation-to-drain lifetime.
// Wired as the parbsAdmitter's drain callback.
func (m *Metrics) observeBatch(d time.Duration) {
	m.mu.Lock()
	m.batchDur.observe(d)
	m.mu.Unlock()
}

// observeOccupancy records a progress heartbeat's request-buffer occupancy
// for the pending-reads gauge. Alone-baseline phases are skipped: their
// single-thread occupancy would make the shared-run gauge sawtooth.
func (m *Metrics) observeOccupancy(p parbs.Progress) {
	if p.Phase != "measure" && p.Phase != "warmup" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(p.PendingPerChannel) == 0 {
		m.pending = append(m.pending[:0], int64(p.PendingReads))
		return
	}
	m.pending = m.pending[:0]
	for _, n := range p.PendingPerChannel {
		m.pending = append(m.pending, int64(n))
	}
}

func (m *Metrics) add(c *int64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

// observeWait records a completed job's queue wait; callers hold m.mu.
func (m *Metrics) observeWait(client string, wait time.Duration) {
	h := m.waits[client]
	if h == nil {
		h = &waitHist{}
		m.waits[client] = h
	}
	h.observe(wait)
}

// Counters is a consistent snapshot of the scalar counters.
type Counters struct {
	Accepted, Rejected, Completed, Failed, CacheHits int64
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Counters{
		Accepted:  m.accepted,
		Rejected:  m.rejected,
		Completed: m.completed,
		Failed:    m.failed,
		CacheHits: m.cacheHits,
	}
}

// gauges are the values render samples from the queue and the store, so
// Metrics stays a plain counter bag.
type gauges struct {
	queueDepth     int
	batchesFormed  int64
	retainedBytes  int64
	resultsEvicted int64
}

// render writes the counters in Prometheus text exposition format.
func (m *Metrics) render(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP parbs_serve_%s %s\n# TYPE parbs_serve_%s counter\nparbs_serve_%s %d\n",
			name, help, name, name, v)
	}
	counter("jobs_accepted_total", "Jobs admitted to the queue (including cached replays).", m.accepted)
	counter("jobs_rejected_total", "Submissions rejected by queue backpressure.", m.rejected)
	counter("jobs_completed_total", "Jobs finished successfully (including cached replays).", m.completed)
	counter("jobs_failed_total", "Jobs that errored, timed out, or panicked.", m.failed)
	counter("cache_hits_total", "Submissions served instantly from the content-hash result cache.", m.cacheHits)
	counter("analyses_total", "Trace analyses computed via POST /v1/analysis.", m.analyses)
	counter("analysis_errors_total", "Analysis submissions whose trace failed to ingest.", m.analysisErrs)
	counter("analysis_ingest_events_total", "Trace events consumed by live-analysis ingesters.", m.ingestEvents)
	counter("analysis_diffs_total", "Cross-run diff reports computed via POST /v1/analysis/diff.", m.diffs)
	counter("analysis_diff_errors_total", "Diff submissions that failed to resolve or ingest an arm.", m.diffErrs)
	counter("batches_formed_total", "Admission batches formed by the PAR-BS scheduler.", g.batchesFormed)
	counter("results_evicted_total", "Retained job results and trace analyses evicted by the result byte budget.", g.resultsEvicted)
	fmt.Fprintf(w, "# HELP parbs_serve_queue_depth Jobs waiting for a worker.\n# TYPE parbs_serve_queue_depth gauge\nparbs_serve_queue_depth %d\n", g.queueDepth)
	fmt.Fprintf(w, "# HELP parbs_serve_retained_result_bytes Bytes of job results and trace analyses retained under the result byte budget.\n# TYPE parbs_serve_retained_result_bytes gauge\nparbs_serve_retained_result_bytes %d\n", g.retainedBytes)
	fmt.Fprintf(w, "# HELP parbs_serve_live_analysis_sessions Live-analysis SSE sessions currently open.\n# TYPE parbs_serve_live_analysis_sessions gauge\nparbs_serve_live_analysis_sessions %d\n", m.liveSessions)
	if len(m.pending) > 0 {
		fmt.Fprintf(w, "# HELP parbs_serve_pending_reads Request-buffer occupancy per DRAM channel at the latest shared-run heartbeat.\n# TYPE parbs_serve_pending_reads gauge\n")
		for ch, n := range m.pending {
			fmt.Fprintf(w, "parbs_serve_pending_reads{channel=\"%d\"} %d\n", ch, n)
		}
	}

	fmt.Fprintf(w, "# HELP parbs_build_info Build metadata; the value is always 1.\n# TYPE parbs_build_info gauge\n")
	fmt.Fprintf(w, "parbs_build_info{version=%q,go=%q} 1\n", buildVersion(), runtime.Version())
	fmt.Fprintf(w, "# HELP parbs_serve_uptime_seconds Seconds since the metrics registry was created.\n# TYPE parbs_serve_uptime_seconds counter\n")
	fmt.Fprintf(w, "parbs_serve_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP parbs_serve_wait_ms Per-client queue wait (milliseconds), power-of-two buckets.\n# TYPE parbs_serve_wait_ms histogram\n")
	renderHists(w, "parbs_serve_wait_ms", "client", m.waits)

	fmt.Fprintf(w, "# HELP parbs_serve_run_duration_ms Per-policy simulation run duration for completed jobs (milliseconds), power-of-two buckets.\n# TYPE parbs_serve_run_duration_ms histogram\n")
	renderHists(w, "parbs_serve_run_duration_ms", "policy", m.runs)

	fmt.Fprintf(w, "# HELP parbs_serve_admission_batch_duration_ms Admission batch lifetime, formation to drain (milliseconds).\n# TYPE parbs_serve_admission_batch_duration_ms summary\n")
	fmt.Fprintf(w, "parbs_serve_admission_batch_duration_ms_count %d\n", m.batchDur.count)
	fmt.Fprintf(w, "parbs_serve_admission_batch_duration_ms_sum %d\n", m.batchDur.sumMS)
	fmt.Fprintf(w, "parbs_serve_admission_batch_duration_ms_max %d\n", m.batchDur.maxMS)
}

// renderHists writes one labeled histogram family in label order.
func renderHists(w io.Writer, name, label string, hists map[string]*waitHist) {
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hists[k]
		var cum int64
		for i := 0; i < waitBuckets-1; i++ {
			// Buckets 0..i together hold values < 2^i ms, i.e. le = 2^i - 1.
			cum += h.buckets[i]
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%d\"} %d\n", name, label, k, int64(1)<<i-1, cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, k, h.count)
		fmt.Fprintf(w, "%s_sum{%s=%q} %d\n", name, label, k, h.sumMS)
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, k, h.count)
		fmt.Fprintf(w, "%s_max{%s=%q} %d\n", name, label, k, h.maxMS)
	}
}

// buildVersion reports the main module's version from the embedded build
// info ("(devel)" for plain go build, a pseudo-version for installs).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}
