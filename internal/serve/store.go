package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	parbs "repro"
	"repro/internal/analysis"
	"repro/internal/trace"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. Terminal states are StatusDone and StatusFailed.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Result is a completed job's payload: the run report and, when requested,
// the embedded parbs.telemetry/v1 report, the Chrome trace-event artifact
// and the typed event log. Results are immutable once published and shared
// between a job and the content-hash cache.
//
// A published Result's Report, Telemetry and Trace are canonical: each is
// empty or one valid JSON value in the exact form encoding/json embeds a
// json.RawMessage (compact, HTML-escaped, no surrounding whitespace). The
// server establishes this once, when the job finishes, and the job view
// splices the bytes in without scanning them again.
type Result struct {
	Report    json.RawMessage
	Telemetry json.RawMessage
	Trace     json.RawMessage
	// TraceLog is the run's event log, kept when the spec set trace.events.
	// POST /v1/analysis {"run": id} and diffs by run analyze it directly;
	// GET /v1/runs/{id}/trace renders it as parbs.trace/v1 JSONL. It is
	// not embedded in the job view (it can be megabytes).
	TraceLog *trace.Log
}

// size is the payload's charge against the retention budget: the
// artifacts' bytes and the memory the event log holds.
func (r *Result) size() int64 {
	return int64(len(r.Report)+len(r.Telemetry)+len(r.Trace)) + r.TraceLog.Bytes()
}

// Job is one accepted simulation run.
type Job struct {
	// Immutable after admission.
	ID      string
	Client  string
	Spec    Spec
	Hash    string
	Cost    int64
	arrival int64 // admission order within the queue

	mu          sync.Mutex
	status      Status
	cached      bool
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	dispatchSeq int64 // global 1-based order the worker pool started it
	result      *Result
	// evicted records that the retention budget dropped the job's payload:
	// result stays nil and the payload endpoints answer 410.
	evicted bool
	errMsg  string

	// entry is the retained payload the job shares; guarded by Store.mu.
	entry *retained

	// done closes on entry to a terminal state; SSE streams and tests wait
	// on it.
	done chan struct{}
	subs *broadcaster
	// live publishes the job's event-log prefix for live analysis; nil
	// unless the spec requested trace events.
	live *liveTrace
}

// start transitions the job to running.
func (j *Job) start(seq int64, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusRunning
	j.dispatchSeq = seq
	j.startedAt = now
}

// finish transitions the job to its terminal state and wakes waiters. A
// payload the retention budget evicted in the meantime stays dropped.
func (j *Job) finish(res *Result, err error, now time.Time) {
	j.mu.Lock()
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
		if !j.evicted {
			j.result = res
		}
	}
	j.finishedAt = now
	j.mu.Unlock()
	j.closeStreams(res)
}

// finishCached completes the job instantly from a cached result: no
// dispatch, no simulation.
func (j *Job) finishCached(res *Result, now time.Time) {
	j.mu.Lock()
	j.status = StatusDone
	j.cached = true
	if !j.evicted {
		j.result = res
	}
	j.finishedAt = now
	j.mu.Unlock()
	j.closeStreams(res)
}

// closeStreams wakes everything waiting on the job's end. Once a stored
// log exists, the live prefix is dropped: live readers continue from the
// stored log.
func (j *Job) closeStreams(res *Result) {
	close(j.done)
	j.subs.close()
	if j.live != nil {
		j.live.closeStream(res != nil && res.TraceLog != nil)
	}
}

// evict drops the job's payload; the record and its status remain.
func (j *Job) evict() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = nil
	j.evicted = true
}

// Snapshot is a consistent copy of a job's mutable state.
type Snapshot struct {
	Status      Status
	Cached      bool
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	DispatchSeq int64
	Result      *Result
	// Evicted reports that the retention budget dropped the payload.
	Evicted bool
	Err     string
}

// snapshot copies the mutable state under the job's lock.
func (j *Job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		Status:      j.status,
		Cached:      j.cached,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		DispatchSeq: j.dispatchSeq,
		Result:      j.result,
		Evicted:     j.evicted,
		Err:         j.errMsg,
	}
}

// Wait returns the job's wait in queue: submission to dispatch (or to now
// while still queued).
func (s Snapshot) Wait(now time.Time) time.Duration {
	switch {
	case s.StartedAt.IsZero() && s.FinishedAt.IsZero():
		return now.Sub(s.SubmittedAt)
	case s.StartedAt.IsZero():
		// Cached replay: never dispatched.
		return s.FinishedAt.Sub(s.SubmittedAt)
	default:
		return s.StartedAt.Sub(s.SubmittedAt)
	}
}

// Store owns the job table and the retained results. The job table is
// bounded: past maxJobs records, admitting a new job evicts the oldest
// terminal (done or failed) ones. Live jobs are never evicted — a flood of
// long runs can push the table past the cap, which then shrinks back as
// they finish. Eviction drops only the job record (its ID stops
// resolving); the payload it shared stays retained while its cache entry
// is.
//
// Retained results are held under one byte budget. A published result is
// charged once per content hash, however many jobs share it (the job that
// ran it and its cache-hit replays). Past maxBytes, the least recently
// used payloads are evicted: the cache entry goes, and every job sharing
// the payload drops it, keeping its record and status. The most recently
// used payload is never evicted, so a single result larger than the budget
// still reaches its job.
//
// Trace analyses are retained under the same budget and in the same LRU:
// each is charged its event columns and report. They are also capped in
// number (oldest first). An analysis evicted either way stops resolving.
type Store struct {
	mu      sync.Mutex
	seq     int64
	maxJobs int
	jobs    map[string]*Job
	order   []string // admission order, oldest first; len == len(jobs)

	maxBytes int64 // negative: unbounded
	cache    map[string]*retained
	lru      list.List // of *retained, most recently used first
	bytes    int64     // sum of the retained payloads' sizes
	evicted  int64     // payloads evicted by the byte budget so far

	maxAnalyses   int
	analysisSeq   int64
	analyses      map[string]*retained
	analysisOrder []*retained // creation order, oldest first
}

// retained is one payload under the byte budget: a content hash's result,
// or a trace analysis.
type retained struct {
	hash string
	res  *Result
	jobs map[*Job]struct{} // jobs sharing res
	// analysis is set, and hash, res and jobs are not, for an analysis.
	analysis *analysisEntry
	size     int64
	elem     *list.Element
}

// DefaultMaxJobs bounds the job table when Options.MaxJobs is zero.
const DefaultMaxJobs = 4096

// DefaultMaxResultBytes bounds the retained results when
// Options.MaxResultBytes is zero.
const DefaultMaxResultBytes = 128 << 20

// NewStore returns an empty store retaining at most maxJobs job records
// and maxResultBytes of results (0 selects the defaults, negative means
// unbounded).
func NewStore(maxJobs int, maxResultBytes int64) *Store {
	if maxJobs == 0 {
		maxJobs = DefaultMaxJobs
	}
	if maxResultBytes == 0 {
		maxResultBytes = DefaultMaxResultBytes
	}
	return &Store{maxJobs: maxJobs, maxBytes: maxResultBytes,
		jobs: make(map[string]*Job), cache: make(map[string]*retained),
		maxAnalyses: DefaultMaxAnalyses, analyses: make(map[string]*retained)}
}

// NewJob admits a job record in the queued state, evicting the oldest
// terminal records if the table is past its cap.
func (st *Store) NewJob(spec Spec, now time.Time) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.newJobLocked(spec, spec.hash(), now)
}

// Replay admits a job for spec that the cached result of an identical
// simulation completes at once, or reports false on a cache miss. The
// replay counts as a use of the payload.
func (st *Store) Replay(spec Spec, now time.Time) (*Job, bool) {
	hash := spec.hash()
	st.mu.Lock()
	e, ok := st.cache[hash]
	if !ok {
		st.mu.Unlock()
		return nil, false
	}
	j := st.newJobLocked(spec, hash, now)
	st.shareLocked(j, e)
	st.mu.Unlock()
	j.finishCached(e.res, now)
	return j, true
}

// newJobLocked creates and records a queued job. Caller holds st.mu.
func (st *Store) newJobLocked(spec Spec, hash string, now time.Time) *Job {
	st.seq++
	j := &Job{
		ID:     fmt.Sprintf("r-%06d", st.seq),
		Client: spec.Client,
		Spec:   spec,
		Hash:   hash,
		Cost:   spec.cost(),

		status:      StatusQueued,
		submittedAt: now,
		done:        make(chan struct{}),
		subs:        newBroadcaster(),
	}
	if spec.Trace != nil && spec.Trace.Events {
		j.live = newLiveTrace()
	}
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	st.evictJobsLocked()
	return j
}

// evictJobsLocked removes oldest-first terminal jobs until the table fits
// the cap (or no terminal job remains). Caller holds st.mu.
func (st *Store) evictJobsLocked() {
	if st.maxJobs < 0 || len(st.jobs) <= st.maxJobs {
		return
	}
	kept := st.order[:0]
	for i, id := range st.order {
		if len(st.jobs) <= st.maxJobs {
			kept = append(kept, st.order[i:]...)
			break
		}
		j := st.jobs[id]
		select {
		case <-j.done: // terminal: evictable
			delete(st.jobs, id)
			if j.entry != nil {
				delete(j.entry.jobs, j)
			}
		default: // queued or running: keep
			kept = append(kept, id)
		}
	}
	st.order = kept
}

// Publish retains res, the result j computed, under j's content hash and
// returns the payload j is to share. If the hash is already retained (an
// identical simulation finished first), j shares that payload and res is
// dropped; otherwise res is charged, and least recently used payloads are
// evicted while the total exceeds the budget.
func (st *Store) Publish(j *Job, res *Result) *Result {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.cache[j.Hash]
	if !ok {
		e = &retained{hash: j.Hash, res: res, size: res.size(), jobs: make(map[*Job]struct{})}
		e.elem = st.lru.PushFront(e)
		st.cache[j.Hash] = e
		st.bytes += e.size
	}
	st.shareLocked(j, e)
	st.fitBudgetLocked()
	return e.res
}

// fitBudgetLocked evicts least recently used payloads while the total
// exceeds the budget, never the most recently used. Caller holds st.mu.
func (st *Store) fitBudgetLocked() {
	for st.maxBytes >= 0 && st.bytes > st.maxBytes && st.lru.Len() > 1 {
		st.evictLocked(st.lru.Back().Value.(*retained))
		st.evicted++
	}
}

// addAnalysis retains a computed analysis as the most recently used
// payload, charged its columns and report, and returns its entry. Past the
// analysis cap the oldest analysis goes first; past the byte budget, the
// least recently used payloads.
func (st *Store) addAnalysis(store *analysis.Store, report *analysis.Report) *analysisEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.analysisSeq++
	e := &retained{analysis: &analysisEntry{id: fmt.Sprintf("a-%06d", st.analysisSeq), store: store, report: report},
		size: store.Bytes() + report.Bytes()}
	e.elem = st.lru.PushFront(e)
	st.bytes += e.size
	st.analyses[e.analysis.id] = e
	st.analysisOrder = append(st.analysisOrder, e)
	for len(st.analyses) > st.maxAnalyses {
		st.evictLocked(st.analysisOrder[0])
	}
	st.fitBudgetLocked()
	return e.analysis
}

// analysis returns a retained analysis, marking it most recently used.
func (st *Store) analysis(id string) (*analysisEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.analyses[id]
	if !ok {
		return nil, false
	}
	st.lru.MoveToFront(e.elem)
	return e.analysis, true
}

// shareLocked attaches j to e's payload and marks e most recently used.
// Caller holds st.mu.
func (st *Store) shareLocked(j *Job, e *retained) {
	j.entry = e
	e.jobs[j] = struct{}{}
	st.lru.MoveToFront(e.elem)
}

// evictLocked drops e and its charge. A result leaves the cache and every
// job sharing it drops its payload; the Result itself is left untouched, so
// a handler already holding it finishes safely. An analysis stops
// resolving. Caller holds st.mu.
func (st *Store) evictLocked(e *retained) {
	st.lru.Remove(e.elem)
	st.bytes -= e.size
	if e.analysis != nil {
		delete(st.analyses, e.analysis.id)
		st.analysisOrder = slices.DeleteFunc(st.analysisOrder, func(o *retained) bool { return o == e })
		return
	}
	delete(st.cache, e.hash)
	for j := range e.jobs {
		j.entry = nil
		j.evict()
	}
}

// Use snapshots j for a request that reads its payload, marking the
// payload most recently used.
func (st *Store) Use(j *Job) Snapshot {
	st.mu.Lock()
	if e := j.entry; e != nil {
		st.lru.MoveToFront(e.elem)
	}
	st.mu.Unlock()
	return j.snapshot()
}

// Retention returns the retained payload bytes and the number of payloads
// the byte budget evicted so far.
func (st *Store) Retention() (bytes, evicted int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes, st.evicted
}

// Get returns the job with the given ID.
func (st *Store) Get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// Cached returns the retained result for a content hash, if any.
func (st *Store) Cached(hash string) (*Result, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.cache[hash]; ok {
		return e.res, true
	}
	return nil, false
}

// Jobs returns the number of admitted jobs.
func (st *Store) Jobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.jobs)
}

// liveTrace publishes a running job's event-log prefix to its /live
// followers. Unlike the progress broadcaster it loses nothing: each
// heartbeat's prefix extends the last, and every follower ingests the
// events of whatever prefix it reads past those it already holds. The
// prefix shares its storage with the running tracer, so publishing costs
// no copy.
//
// Once the job has finished with a stored log the prefix is dropped:
// followers continue from the stored log, which the retention budget
// charges and may evict, and hold nothing of the job's past their own
// reference. A failed job has no stored log and keeps its last prefix.
type liveTrace struct {
	mu     sync.Mutex
	log    *trace.Log
	closed bool
	// notify closes and is replaced whenever a longer prefix arrives or
	// the stream closes; followers wait on the instance they last observed.
	notify chan struct{}
}

func newLiveTrace() *liveTrace {
	return &liveTrace{notify: make(chan struct{})}
}

// publish replaces the prefix (called from the simulation goroutine's sink
// hook). A prefix no longer than the current one wakes nobody.
func (lt *liveTrace) publish(log *trace.Log) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.closed || lt.log != nil && len(log.Events) <= len(lt.log.Events) {
		return
	}
	lt.log = log
	close(lt.notify)
	lt.notify = make(chan struct{})
}

// closeStream marks the stream complete and wakes all followers. stored
// reports that the job kept its log, which supersedes the prefix.
func (lt *liveTrace) closeStream(stored bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.closed {
		return
	}
	lt.closed = true
	if stored {
		lt.log = nil
	}
	close(lt.notify)
}

// next returns the current prefix (nil before the run has started and
// after a stored close), whether the stream has closed, and a channel that
// signals a longer prefix or the close.
func (lt *liveTrace) next() (log *trace.Log, closed bool, wait <-chan struct{}) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.log, lt.closed, lt.notify
}

// broadcaster fans a job's progress heartbeats out to its SSE subscribers.
// publish never blocks (the hook runs inside the simulator loop): each
// subscriber holds a 1-slot channel and a stale snapshot is replaced by the
// newest — SSE consumers want the latest state, not every epoch.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[chan parbs.Progress]struct{}
	closed bool
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[chan parbs.Progress]struct{})}
}

// subscribe registers a listener; cancel removes it. Subscribing to an
// already-closed broadcaster returns a closed channel.
func (b *broadcaster) subscribe() (<-chan parbs.Progress, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan parbs.Progress, 1)
	if b.closed {
		close(ch)
		return ch, func() {}
	}
	b.subs[ch] = struct{}{}
	return ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
		}
	}
}

// publish delivers the newest snapshot to every subscriber, dropping stale
// undelivered ones.
func (b *broadcaster) publish(p parbs.Progress) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ch := range b.subs {
		select {
		case ch <- p:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

// close ends the stream: subscriber channels close after any buffered
// final snapshot drains.
func (b *broadcaster) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
}
