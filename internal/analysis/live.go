package analysis

import (
	"bytes"
	"sync"

	"repro/internal/trace"
)

// LiveIngester incrementally consumes a parbs.trace/v1 JSONL stream that is
// still being produced — a running job's trace chunks, or a file tailed on
// disk — and keeps a columnar store current so windowed reports can be
// computed at any moment without rescanning.
//
// Consistency model: every report reflects exactly the complete lines fed
// so far — a prefix of the trace. Report(opt) at any instant returns
// byte-identical aggregates to Ingest-ing that same prefix post hoc and
// calling Analyze(opt); once the stream ends (Finalize after the last Feed)
// the live report converges to the post-hoc report of the whole trace.
//
// Damage handling mirrors Ingest: a malformed line marks the store
// ingest-truncated and permanently stops consumption (everything after the
// first tear is untrustworthy), but the prefix already ingested stays
// queryable. Header damage is the only fatal error.
//
// All methods are safe for concurrent use; feeding and reporting may come
// from different goroutines.
type LiveIngester struct {
	mu sync.Mutex

	store      *Store
	buf        []byte // undelivered tail: bytes after the last newline fed
	headerSeen bool
	headerEvs  int // event count promised by the header (0 on live streams)
	damaged    bool
	finalized  bool
	headerErr  error
}

// NewLiveIngester returns an empty ingester awaiting the stream's header
// line.
func NewLiveIngester() *LiveIngester {
	return &LiveIngester{store: &Store{}}
}

// Feed appends a chunk of the stream. Chunks may split lines arbitrarily;
// incomplete tails are buffered until the terminating newline arrives. The
// only error is header damage — nothing trustworthy follows a bad header.
// Event-line damage is absorbed: the store is flagged ingest-truncated and
// later chunks are ignored.
func (li *LiveIngester) Feed(chunk []byte) error {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.damaged || li.finalized {
		return li.headerErr
	}
	li.buf = append(li.buf, chunk...)
	for {
		nl := bytes.IndexByte(li.buf, '\n')
		if nl < 0 {
			return nil
		}
		line := li.buf[:nl]
		li.buf = li.buf[nl+1:]
		if err := li.consumeLine(line); err != nil {
			return err
		}
		if li.damaged {
			return nil
		}
	}
}

// consumeLine ingests one complete line under li.mu.
func (li *LiveIngester) consumeLine(line []byte) error {
	if len(bytes.TrimSpace(line)) == 0 {
		return nil
	}
	if !li.headerSeen {
		meta, dropped, events, err := trace.ParseHeader(line)
		if err == nil {
			err = checkShape(meta)
		}
		if err != nil {
			li.damaged = true
			li.headerErr = err
			return err
		}
		li.headerSeen = true
		li.headerEvs = events
		li.store.meta = meta
		li.store.dropped = dropped
		li.store.truncated = dropped > 0
		li.store.grow(trace.EventsHint(events, -1))
		return nil
	}
	ev, pt, err := trace.ParseEventLine(line)
	if err != nil {
		// First tear: keep the prefix, refuse everything after.
		li.store.truncated = true
		li.store.ingestTruncated = true
		li.damaged = true
		return nil
	}
	li.store.append(ev, pt)
	return nil
}

// Finalize declares the stream complete: a buffered unterminated tail is
// consumed as the final line (files legitimately end without a trailing
// newline; Scanner accepts the same). Further Feed calls are ignored.
func (li *LiveIngester) Finalize() {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.finalized {
		return
	}
	li.finalized = true
	if li.damaged || len(bytes.TrimSpace(li.buf)) == 0 {
		li.buf = nil
		return
	}
	li.consumeLine(li.buf)
	li.buf = nil
}

// SetDropped reconciles the record-time drop count once the true value is
// known (live stream headers carry zero — the count is unknowable mid-run;
// the completed log's header has the truth).
func (li *LiveIngester) SetDropped(n int64) {
	li.mu.Lock()
	defer li.mu.Unlock()
	li.store.dropped = n
	if n > 0 {
		li.store.truncated = true
	}
}

// Report computes the windowed analysis of the prefix ingested so far, or
// nil before the header line has arrived (there is no run to describe yet).
// The returned report is a self-contained value; the ingester keeps moving
// underneath it.
func (li *LiveIngester) Report(opt Options) *Report {
	li.mu.Lock()
	defer li.mu.Unlock()
	if !li.headerSeen {
		return nil
	}
	return li.store.Analyze(opt)
}

// HeaderSeen reports whether the stream's header line has been ingested.
func (li *LiveIngester) HeaderSeen() bool {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.headerSeen
}

// HeaderEvents returns the event count promised by the header (zero on
// live streams, whose headers are written before the run finishes).
func (li *LiveIngester) HeaderEvents() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.headerEvs
}

// Events returns the number of events ingested so far.
func (li *LiveIngester) Events() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return len(li.store.kind)
}
