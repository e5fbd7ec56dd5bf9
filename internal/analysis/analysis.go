// Package analysis is the trace-analytics subsystem: it ingests
// parbs.trace/v1 lifecycle event logs (internal/trace) into an in-memory
// columnar store, computes windowed aggregates — per-bank / per-channel
// occupancy and queue depth, per-thread wait decomposition over time,
// batch formation/drain timelines — ranks bottlenecks (top-K banks and
// threads by contributed wait) per window and over any cycle range, and
// audits the paper's §4.3 Marking-Cap starvation bound (audit.go).
//
// The module is dependency-free by charter, so there is no sqlite here:
// the store keeps each event field in its own slice (struct-of-arrays, the
// same layout a column store would give us) and persists through a
// versioned binary snapshot format, parbs.analysis/v1 (snapshot.go), that
// round-trips byte-identically.
//
// Ingest is streaming (trace.Scanner) and deliberately tolerant of
// truncation: a log whose tracer dropped events (header dropped > 0) or
// whose tail was cut mid-line ingests to a store covering the recorded
// prefix, flagged Truncated, never an error — a forensics tool that
// refuses damaged evidence is useless at exactly the wrong moment.
//
// Front ends sit on top: the typed query API (Analyze → Report, window.go;
// Audit, audit.go), the `parbs-trace report` and `analyze` subcommands, and
// the parbs-serve /v1/analysis endpoints with the embedded HTML dashboard.
package analysis

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Schema identifies both the binary snapshot format (snapshot.go) and the
// report JSON the query layer emits. v2 added the ingest-truncation flag to
// the snapshot header (the percentile columns are derived at Analyze time,
// so they need no storage change); SchemaV1 snapshots remain readable.
const (
	Schema   = "parbs.analysis/v2"
	SchemaV1 = "parbs.analysis/v1"
)

// Store is the in-memory columnar event store: one slice per event field,
// parallel by index, in the log's simulation processing order. Construct
// with FromLog, Ingest, or ReadSnapshot. A Store is immutable once built
// and safe for concurrent readers.
type Store struct {
	meta      trace.Meta
	truncated bool
	// ingestTruncated records stream damage found while reading (torn
	// tail, malformed line) as opposed to record-time buffer drops.
	ingestTruncated bool
	dropped         int64

	kind    []uint8
	cycle   []int64
	req     []int64
	row     []int64
	thread  []int32
	bank    []int32
	rank    []int32
	channel []int32
	cmd     []uint8
	write   []bool

	// batchPT holds per-thread marked counts for the i-th KindBatch event.
	batchPT [][]int32
}

// checkShape rejects a header whose run shape exceeds trace.MaxCores and
// trace.MaxBanks: Analyze gives every window one column per bank (channels
// × banks) and one per core, sized from the header, so a short upload must
// not declare a billion cores. Each factor is bounded on its own first so
// their product cannot overflow.
func checkShape(m trace.Meta) error {
	channels, banks := max(m.Channels, 1), max(m.Banks, 1)
	if m.Cores > trace.MaxCores || channels > trace.MaxBanks || banks > trace.MaxBanks || channels*banks > trace.MaxBanks {
		return fmt.Errorf("analysis: run shape of %d cores on %d channels × %d banks exceeds the analyzable %d cores and %d banks",
			m.Cores, m.Channels, m.Banks, trace.MaxCores, trace.MaxBanks)
	}
	return nil
}

// Meta returns the traced run's metadata.
func (s *Store) Meta() trace.Meta { return s.meta }

// Events returns the number of stored events.
func (s *Store) Events() int { return len(s.kind) }

// Truncated reports that the store covers an incomplete prefix of the run:
// the tracer dropped events at record time, or the ingested stream was cut.
func (s *Store) Truncated() bool { return s.truncated }

// Dropped returns the record-time drop count from the log header.
func (s *Store) Dropped() int64 { return s.dropped }

// IngestTruncated reports that the ingested stream itself was damaged (cut
// mid-line or mid-stream), distinct from record-time drops; see Truncated
// for the union of both conditions.
func (s *Store) IngestTruncated() bool { return s.ingestTruncated }

// append adds one event to the columns.
func (s *Store) append(ev trace.Event, perThread []int32) {
	s.kind = append(s.kind, uint8(ev.Kind))
	s.cycle = append(s.cycle, ev.Cycle)
	s.req = append(s.req, ev.Req)
	s.row = append(s.row, ev.Row)
	s.thread = append(s.thread, ev.Thread)
	s.bank = append(s.bank, ev.Bank)
	s.rank = append(s.rank, ev.Rank)
	s.channel = append(s.channel, ev.Channel)
	s.cmd = append(s.cmd, ev.Cmd)
	s.write = append(s.write, ev.Write)
	if ev.Kind == trace.KindBatch {
		s.batchPT = append(s.batchPT, append([]int32(nil), perThread...))
	}
}

// grow preallocates the columns for n events. Callers pass a count
// bounded by the input's size (trace.EventsHint), never a header's
// declared count as is: the columns still grow as events arrive.
func (s *Store) grow(n int) {
	if n <= 0 {
		return
	}
	s.kind = make([]uint8, 0, n)
	s.cycle = make([]int64, 0, n)
	s.req = make([]int64, 0, n)
	s.row = make([]int64, 0, n)
	s.thread = make([]int32, 0, n)
	s.bank = make([]int32, 0, n)
	s.rank = make([]int32, 0, n)
	s.channel = make([]int32, 0, n)
	s.cmd = make([]uint8, 0, n)
	s.write = make([]bool, 0, n)
}

// FromLog builds a store from an in-memory event log (a completed Tracer's
// Log).
func FromLog(log *trace.Log) *Store {
	s := &Store{}
	s.grow(len(log.Events))
	s.extend(log)
	return s
}

// extend appends the events of log past the store's own, and takes the
// log's metadata and drop count. log must extend the events already stored,
// as each Log of a recording Tracer extends the one before. A batch event
// whose per-thread shape the log does not hold stores a nil shape.
func (s *Store) extend(log *trace.Log) {
	s.meta, s.dropped = log.Meta, log.Dropped
	s.truncated = s.ingestTruncated || log.Dropped > 0
	for _, ev := range log.Events[len(s.kind):] {
		var pt []int32
		if ev.Kind == trace.KindBatch && len(s.batchPT) < len(log.BatchPerThread) {
			pt = log.BatchPerThread[len(s.batchPT)]
		}
		s.append(ev, pt)
	}
}

// Ingest streams a parbs.trace/v1 JSONL log into a store. Truncated input
// — record-time drops or a mid-line cut — yields a store over the
// parseable prefix with Truncated set; only header damage (nothing
// trustworthy follows) or a reader failure is an error.
func Ingest(r io.Reader) (*Store, error) {
	sc, err := trace.NewScanner(r)
	if err != nil {
		return nil, err
	}
	if err := checkShape(sc.Meta()); err != nil {
		return nil, err
	}
	s := &Store{meta: sc.Meta(), dropped: sc.Dropped(), truncated: sc.Dropped() > 0}
	s.grow(sc.Prealloc())
	for {
		ev, pt, err := sc.Next()
		if err == io.EOF {
			return s, nil
		}
		if errors.Is(err, trace.ErrTruncated) {
			s.truncated = true
			s.ingestTruncated = true
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		s.append(ev, pt)
	}
}
