package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	parbs "repro"
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
// the embedded parbs.telemetry/v1 report and/or Chrome trace-event
// artifact. Results are immutable once published and shared between a job
// and the content-hash cache.
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
	// TraceEvents is the raw parbs.trace/v1 JSONL, kept when the spec set
	// trace.events. Served at GET /v1/runs/{id}/trace and consumed by
	// POST /v1/analysis {"run": id}; not embedded in the job view (it can
	// be megabytes).
	TraceEvents []byte
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
	errMsg      string

	// done closes on entry to a terminal state; SSE streams and tests wait
	// on it.
	done chan struct{}
	subs *broadcaster
	// live buffers the job's incremental trace chunks for live analysis;
	// nil unless the spec requested trace events.
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

// finish transitions the job to its terminal state and wakes waiters.
func (j *Job) finish(res *Result, err error, now time.Time) {
	j.mu.Lock()
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
		j.result = res
	}
	j.finishedAt = now
	j.mu.Unlock()
	close(j.done)
	j.subs.close()
	if j.live != nil {
		j.live.closeStream()
	}
}

// finishCached completes the job instantly from a cached result: no
// dispatch, no simulation.
func (j *Job) finishCached(res *Result, now time.Time) {
	j.mu.Lock()
	j.status = StatusDone
	j.cached = true
	j.result = res
	j.finishedAt = now
	j.mu.Unlock()
	close(j.done)
	j.subs.close()
	if j.live != nil {
		j.live.closeStream()
	}
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
	Err         string
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

// Store owns the job table and the content-hash result cache. The job
// table is bounded: past maxJobs records, admitting a new job evicts the
// oldest terminal (done or failed) ones. Live jobs are never evicted — a
// flood of long runs can push the table past the cap, which then shrinks
// back as they finish. Eviction drops only the job record (its ID stops
// resolving); the content-hash result cache is untouched, so an identical
// resubmission still replays instantly.
type Store struct {
	mu      sync.Mutex
	seq     int64
	maxJobs int
	jobs    map[string]*Job
	order   []string // admission order, oldest first; len == len(jobs)
	cache   map[string]*Result
}

// DefaultMaxJobs bounds the job table when Options.MaxJobs is zero.
const DefaultMaxJobs = 4096

// NewStore returns an empty store retaining at most maxJobs job records
// (0 selects DefaultMaxJobs, negative means unbounded).
func NewStore(maxJobs int) *Store {
	if maxJobs == 0 {
		maxJobs = DefaultMaxJobs
	}
	return &Store{maxJobs: maxJobs, jobs: make(map[string]*Job), cache: make(map[string]*Result)}
}

// NewJob admits a job record in the queued state, evicting the oldest
// terminal records if the table is past its cap.
func (st *Store) NewJob(spec Spec, now time.Time) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	j := &Job{
		ID:     fmt.Sprintf("r-%06d", st.seq),
		Client: spec.Client,
		Spec:   spec,
		Hash:   spec.hash(),
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
	st.evictLocked()
	return j
}

// evictLocked removes oldest-first terminal jobs until the table fits the
// cap (or no terminal job remains). Caller holds st.mu.
func (st *Store) evictLocked() {
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
		default: // queued or running: keep
			kept = append(kept, id)
		}
	}
	st.order = kept
}

// Get returns the job with the given ID.
func (st *Store) Get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// Cached returns the cached result for a content hash, if any.
func (st *Store) Cached(hash string) (*Result, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.cache[hash]
	return r, ok
}

// PutCache publishes a completed result under its content hash.
func (st *Store) PutCache(hash string, r *Result) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cache[hash] = r
}

// Jobs returns the number of admitted jobs.
func (st *Store) Jobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.jobs)
}

// liveTrace accumulates a running job's incremental trace chunks and lets
// followers read the growing prefix. Unlike the progress broadcaster it
// never drops: live analysis needs every byte, not just the newest. The
// buffer is bounded by the tracer's own MaxEvents cap upstream, so a
// follower is at most one trace-artifact's worth of memory behind.
type liveTrace struct {
	mu     sync.Mutex
	buf    []byte
	closed bool
	// notify closes and is replaced whenever the buffer grows or the
	// stream closes; followers wait on the instance they last observed.
	notify chan struct{}
}

func newLiveTrace() *liveTrace {
	return &liveTrace{notify: make(chan struct{})}
}

// append adds a chunk (called from the simulation goroutine's sink hook).
func (lt *liveTrace) append(chunk []byte) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.closed {
		return
	}
	lt.buf = append(lt.buf, chunk...)
	close(lt.notify)
	lt.notify = make(chan struct{})
}

// closeStream marks the stream complete and wakes all followers.
func (lt *liveTrace) closeStream() {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.closed {
		return
	}
	lt.closed = true
	close(lt.notify)
}

// next returns the bytes past from, whether the stream has closed, and a
// channel that signals further growth (nil data when nothing new yet).
func (lt *liveTrace) next(from int) (data []byte, closed bool, wait <-chan struct{}) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if from < len(lt.buf) {
		return lt.buf[from:], lt.closed, lt.notify
	}
	return nil, lt.closed, lt.notify
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
