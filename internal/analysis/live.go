package analysis

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// LiveIngester keeps a columnar store current with a trace that is still
// being produced, so windowed reports can be computed at any moment
// without rescanning. It follows one of two sources: a parbs.trace/v1 JSONL
// stream fed in chunks (a file tailed on disk) through Feed, or the
// successive typed logs of a recording Tracer (a running serve job)
// through FeedLog.
//
// Consistency model: every report reflects exactly the input fed so far —
// a prefix of the trace. Report(opt) at any instant returns byte-identical
// aggregates to Ingest-ing the complete lines fed (or FromLog of the last
// log fed) and calling Analyze(opt); once the stream ends (Finalize after
// the last Feed, or the completed log) the live report converges to the
// post-hoc report of the whole trace.
//
// Damage handling mirrors Ingest: a malformed or overlong line marks the
// store ingest-truncated and permanently stops consumption (everything
// after the first tear is untrustworthy), but the prefix already ingested
// stays queryable. Header damage is the only fatal error.
//
// All methods are safe for concurrent use; feeding and reporting may come
// from different goroutines.
type LiveIngester struct {
	mu sync.Mutex

	store      *Store
	buf        []byte // undelivered tail: bytes after the last newline fed
	headerSeen bool   // the header line, or the first log, was taken
	headerEvs  int    // event count promised by the header, a hint
	damaged    bool
	finalized  bool
	headerErr  error
}

// errLineTooLong is the damage of a line no JSONL reader accepts.
var errLineTooLong = fmt.Errorf("trace: line of %d bytes or more", trace.MaxLineBytes)

// NewLiveIngester returns an empty ingester awaiting the stream's header
// line or its first log.
func NewLiveIngester() *LiveIngester {
	return &LiveIngester{store: &Store{}}
}

// Feed appends a chunk of the stream. Chunks may split lines arbitrarily;
// incomplete tails are buffered until the terminating newline arrives, up
// to trace.MaxLineBytes. The only error is header damage — nothing
// trustworthy follows a bad header. Event-line damage is absorbed: the
// store is flagged ingest-truncated and later chunks are ignored.
func (li *LiveIngester) Feed(chunk []byte) error {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.damaged || li.finalized {
		return li.headerErr
	}
	from := len(li.buf) // the tail held before this chunk has no newline
	li.buf = append(li.buf, chunk...)
	for {
		nl := bytes.IndexByte(li.buf[from:], '\n')
		if nl < 0 {
			break
		}
		line := li.buf[:from+nl]
		li.buf, from = li.buf[from+nl+1:], 0
		if err := li.consumeLine(line); err != nil || li.damaged {
			return err
		}
	}
	if len(li.buf) >= trace.MaxLineBytes {
		return li.damage(errLineTooLong)
	}
	return nil
}

// consumeLine ingests one complete line under li.mu.
func (li *LiveIngester) consumeLine(line []byte) error {
	if len(line) >= trace.MaxLineBytes {
		return li.damage(errLineTooLong)
	}
	if len(bytes.TrimSpace(line)) == 0 {
		return nil
	}
	if !li.headerSeen {
		meta, dropped, events, err := trace.ParseHeader(line)
		if err == nil {
			err = checkShape(meta)
		}
		if err != nil {
			return li.damage(err)
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
		return li.damage(err)
	}
	li.store.append(ev, pt)
	return nil
}

// damage records the first tear under li.mu and stops consumption. Before
// the header it is fatal: the error is returned now and by every later
// Feed. After it, the prefix stays queryable, flagged ingest-truncated.
func (li *LiveIngester) damage(err error) error {
	li.damaged = true
	li.buf = nil
	if !li.headerSeen {
		li.headerErr = err
		return err
	}
	li.store.truncated = true
	li.store.ingestTruncated = true
	return nil
}

// FeedLog takes the events of log past those already ingested, with the
// log's metadata and drop count. Each log fed must extend the one before,
// as the Logs of a recording Tracer do; the report then equals
// FromLog(log).Analyze.
func (li *LiveIngester) FeedLog(log *trace.Log) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if !li.headerSeen {
		li.headerSeen = true
		li.store.grow(len(log.Events))
	}
	li.store.extend(log)
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

// Report computes the windowed analysis of the prefix ingested so far, or
// nil before the header line or the first log has arrived (there is no run
// to describe yet).
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

// HeaderEvents returns the event count promised by the header: a hint,
// zero from a writer that wrote the header before the run finished.
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
