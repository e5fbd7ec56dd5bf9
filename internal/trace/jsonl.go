package trace

import (
	"encoding/json"
	"io"
)

// JSONL wire format: one JSON object per line. The first line is the run
// header carrying Schema and the Meta fields (runLine, encoded by
// encoding/json); every following line is one event, discriminated by
// "kind" and written and read by the hand-written codec in codec.go. Field
// order is fixed, so a write → read → write cycle is byte-identical (the
// schema pin and golden digest tests rely on this).

type runLine struct {
	Schema     string `json:"schema"`
	Kind       string `json:"kind"`
	Policy     string `json:"policy"`
	Workload   string `json:"workload"`
	Cores      int    `json:"cores"`
	Banks      int    `json:"banks"`
	Channels   int    `json:"channels,omitempty"`
	CPUPerDRAM int64  `json:"cpu_per_dram"`
	WarmupDRAM int64  `json:"warmup_dram"`
	TotalDRAM  int64  `json:"total_dram"`
	MarkingCap int    `json:"marking_cap"`
	ReadBuf    int    `json:"read_buf"`
	Events     int    `json:"events"`
	Dropped    int64  `json:"dropped"`
}

// headerLine builds the run header line with explicit event/drop counts
// (a completed log writes the real counts; a live stream writes zeros —
// readers treat them as hints, never hard limits).
func headerLine(meta Meta, events int, dropped int64) runLine {
	return runLine{
		Schema:     Schema,
		Kind:       "run",
		Policy:     meta.Policy,
		Workload:   meta.Workload,
		Cores:      meta.Cores,
		Banks:      meta.Banks,
		Channels:   meta.Channels,
		CPUPerDRAM: meta.CPUPerDRAM,
		WarmupDRAM: meta.WarmupDRAM,
		TotalDRAM:  meta.TotalDRAM,
		MarkingCap: meta.MarkingCap,
		ReadBuf:    meta.ReadBufEntries,
		Events:     events,
		Dropped:    dropped,
	}
}

// appendHeaderLine appends the header line, encoded by encoding/json.
func appendHeaderLine(dst []byte, meta Meta, events int, dropped int64) ([]byte, error) {
	line, err := json.Marshal(headerLine(meta, events, dropped))
	if err != nil {
		return dst, err
	}
	return append(append(dst, line...), '\n'), nil
}

// flushAt is the buffered output size at which the writers hand their
// buffer to the underlying writer.
const flushAt = 64 << 10

// WriteJSONL renders the log as schema-versioned JSONL.
func WriteJSONL(w io.Writer, log *Log) error {
	buf, err := appendHeaderLine(make([]byte, 0, flushAt+512), log.Meta, len(log.Events), log.Dropped)
	if err != nil {
		return err
	}
	batch := 0
	for _, ev := range log.Events {
		var pt []int32
		if ev.Kind == KindBatch {
			if batch < len(log.BatchPerThread) {
				pt = log.BatchPerThread[batch]
			}
			batch++
		}
		if buf, err = appendEventLine(buf, ev, pt); err != nil {
			return err
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err = w.Write(buf)
	return err
}

// Cursor incrementally renders a tracer's recorded events as parbs.trace/v1
// JSONL: each WriteNew call emits the events recorded since the previous
// call, opening the stream with a header line on the first. The header's
// events and dropped counts are written as zero — they are unknowable while
// the run is still recording — so live consumers must treat them as hints
// and reconcile the real drop count after the run (the completed log's
// header, written by WriteJSONL, carries the truth).
//
// A Cursor shares the Tracer's single-goroutine discipline: call WriteNew
// only from the goroutine that owns the tracer (in practice, from inside a
// progress callback, which the engines invoke synchronously on the
// simulation goroutine) or after the run has returned.
type Cursor struct {
	t          *Tracer
	next       int // first event not yet rendered
	batches    int // KindBatch events rendered so far (batchPT index)
	headerDone bool
	buf        []byte // rendering scratch, reused across calls
}

// NewCursor returns a cursor positioned at the start of t's event stream.
func (t *Tracer) NewCursor() *Cursor { return &Cursor{t: t} }

// Bound reports whether the tracer has been bound to a run (run metadata
// is only trustworthy afterwards).
func (t *Tracer) Bound() bool { return t.bound }

// WriteNew renders every event recorded since the previous call (plus the
// header line on the first call) and advances the cursor. The chunk goes
// to w in one Write; on an event it cannot encode, the lines before it are
// still written.
func (c *Cursor) WriteNew(w io.Writer) error {
	buf, err := c.render(c.buf[:0])
	c.buf = buf
	if len(buf) > 0 {
		if _, werr := w.Write(buf); werr != nil {
			return werr
		}
	}
	return err
}

// render appends the header (first call only) and the new event lines to
// buf, stopping at the first event it cannot encode.
func (c *Cursor) render(buf []byte) ([]byte, error) {
	if !c.headerDone {
		var err error
		if buf, err = appendHeaderLine(buf, c.t.meta, 0, 0); err != nil {
			return buf, err
		}
		c.headerDone = true
	}
	for ; c.next < len(c.t.events); c.next++ {
		ev := c.t.events[c.next]
		var pt []int32
		if ev.Kind == KindBatch {
			if c.batches < len(c.t.batchPT) {
				pt = c.t.batchPT[c.batches]
			}
			c.batches++
		}
		line, err := appendEventLine(buf, ev, pt)
		if err != nil {
			return buf, err
		}
		buf = line
	}
	return buf, nil
}

// WriteJSONL renders the tracer's recorded run as schema-versioned JSONL.
func (t *Tracer) WriteJSONL(w io.Writer) error { return WriteJSONL(w, t.Log()) }
