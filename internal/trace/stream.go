package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Streaming access to parbs.trace/v1 JSONL: the Scanner is the one reader
// of the wire format. It yields events one at a time so a consumer can fold
// them into aggregates without materializing the event slice, and it is
// deliberately lenient about truncation. Logs arrive truncated in two
// honest ways — the tracer's buffer filled (header dropped > 0) and the
// recorded prefix is complete, or the file itself was cut mid-line (a
// killed run, a partial download). The Scanner surfaces the second as
// ErrTruncated after delivering every parseable prefix event, so analyzers
// degrade to partial results instead of refusing the whole log.

// ErrTruncated reports a JSONL stream that ended mid-line (or with an
// unparseable tail). Every event before the damage has already been
// delivered; the consumer should flag the analysis as partial.
var ErrTruncated = errors.New("trace: event stream truncated mid-line")

// Scanner reads a parbs.trace/v1 event log one event at a time.
// Construct with NewScanner (which consumes and validates the header),
// then call Next until it returns io.EOF or ErrTruncated.
type Scanner struct {
	sc       *bufio.Scanner
	dec      lineDecoder
	meta     Meta
	drops    int64
	events   int // header's event count, informational
	prealloc int // events, bounded by the input size
	lineNo   int
}

// NewScanner consumes the stream's header line and prepares event
// iteration. It fails on an empty stream, an unparseable header, or a
// schema other than Schema — a damaged header leaves nothing trustworthy
// to analyze.
func NewScanner(r io.Reader) (*Scanner, error) {
	avail := inputLen(r)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty log")
	}
	meta, dropped, events, err := ParseHeader(sc.Bytes())
	if err != nil {
		return nil, err
	}
	return &Scanner{
		sc:       sc,
		meta:     meta,
		drops:    dropped,
		events:   events,
		prealloc: EventsHint(events, avail),
		lineNo:   1,
	}, nil
}

// ParseHeader decodes a parbs.trace/v1 header line into the run metadata
// plus the header's record-time drop count and promised event count. It is
// the incremental counterpart of NewScanner's header consumption, exported
// for line-at-a-time consumers (the analysis layer's live ingester).
func ParseHeader(raw []byte) (meta Meta, dropped int64, events int, err error) {
	var hdr runLine
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return Meta{}, 0, 0, fmt.Errorf("trace: bad header: %w", err)
	}
	if hdr.Schema != Schema {
		return Meta{}, 0, 0, fmt.Errorf("trace: schema %q, want %q", hdr.Schema, Schema)
	}
	return Meta{
		Policy:         hdr.Policy,
		Workload:       hdr.Workload,
		Cores:          hdr.Cores,
		Banks:          hdr.Banks,
		Channels:       hdr.Channels,
		CPUPerDRAM:     hdr.CPUPerDRAM,
		WarmupDRAM:     hdr.WarmupDRAM,
		TotalDRAM:      hdr.TotalDRAM,
		MarkingCap:     hdr.MarkingCap,
		ReadBufEntries: hdr.ReadBuf,
	}, hdr.Dropped, hdr.Events, nil
}

// Meta returns the run metadata from the header line.
func (s *Scanner) Meta() Meta { return s.meta }

// Dropped returns the header's count of events the tracer discarded after
// its buffer filled. Non-zero means the log is an honest prefix of the run.
func (s *Scanner) Dropped() int64 { return s.drops }

// HeaderEvents returns the event count the header promised; a stream that
// ends early (ErrTruncated) delivers fewer. The count is unchecked input:
// size buffers by Prealloc instead.
func (s *Scanner) HeaderEvents() int { return s.events }

// Prealloc returns HeaderEvents bounded by what the input can hold (see
// EventsHint): a safe capacity for buffers that will receive the events.
func (s *Scanner) Prealloc() int { return s.prealloc }

// minEventLine is the length of the shortest event line the decoder
// accepts, {"kind":"mark"}, plus its newline.
const minEventLine = 16

// blindPrealloc caps preallocation when the input size is unknown.
const blindPrealloc = 1 << 16

// EventsHint bounds a header's declared event count, which the input may
// misstate, by the events the input can hold: one per minEventLine bytes
// of avail, or blindPrealloc when avail is negative (unknown). Buffers
// sized by it grow as events arrive; a header that declares 2^34 events
// in a 100-byte stream cannot make a reader allocate for them.
func EventsHint(declared, avail int) int {
	limit := blindPrealloc
	if avail >= 0 {
		limit = avail/minEventLine + 1
	}
	return max(0, min(declared, limit))
}

// inputLen returns the unread length of readers that know it
// (bytes.Reader, strings.Reader, bytes.Buffer), or -1.
func inputLen(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}

// Line returns the 1-based line number of the most recently read line.
func (s *Scanner) Line() int { return s.lineNo }

// Next returns the next event. For KindBatch events, perThread is the
// batch's per-thread marked counts; it is nil for every other kind and
// must not be retained across calls to Next (it aliases the decoder's
// scratch, which the next batch line overwrites).
//
// The error is io.EOF at a clean end of stream, ErrTruncated (possibly
// wrapped with the line and the fault; test with errors.Is) when the
// stream ends with an unparseable line (every prior event was delivered),
// or the underlying reader's error.
func (s *Scanner) Next() (ev Event, perThread []int32, err error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			// A line longer than the scanner's 16 MB cap is damage, not a
			// well-formed log; report it as truncation like any other
			// unreadable tail.
			if errors.Is(err, bufio.ErrTooLong) {
				return Event{}, nil, ErrTruncated
			}
			return Event{}, nil, err
		}
		return Event{}, nil, io.EOF
	}
	s.lineNo++
	ev, perThread, perr := s.dec.decode(s.sc.Bytes())
	if perr != nil {
		// Any malformed event line is treated as the start of damage: a
		// mid-file flipped byte cannot be distinguished from a cut tail
		// without trusting the rest of the stream, and partial-prefix
		// semantics are the honest contract either way.
		return Event{}, nil, fmt.Errorf("%w at line %d: %v", ErrTruncated, s.lineNo, perr)
	}
	return ev, perThread, nil
}

// String names the event kind with its JSONL wire discriminator.
func (k Kind) String() string {
	switch k {
	case KindArrive:
		return "arrive"
	case KindMark:
		return "mark"
	case KindCommand:
		return "cmd"
	case KindComplete:
		return "done"
	case KindBatch:
		return "batch"
	case KindBatchEnd:
		return "batch_end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// FieldDoc describes one wire field of a parbs.trace/v1 line — the
// machine-readable schema table behind the documentation and the
// `parbs-trace schema` listing, and the source of truth the codec is
// checked against: TestSchemaFieldsMatchWire checks that the
// encoder writes exactly these keys, in this order, and that the decoder
// reads exactly them.
type FieldDoc struct {
	Line  string // line kind ("run" for the header)
	Field string // JSON field name
	Type  string // JSON type as written
	Doc   string // meaning
}

// SchemaFields returns the field-by-field schema of every parbs.trace/v1
// line kind, header first, in wire order.
func SchemaFields() []FieldDoc {
	return []FieldDoc{
		{"run", "schema", "string", "wire format identifier, always \"" + Schema + "\""},
		{"run", "kind", "string", "line discriminator, always \"run\" on the header"},
		{"run", "policy", "string", "scheduling policy name"},
		{"run", "workload", "string", "benchmark mix name"},
		{"run", "cores", "int", "simulated cores (= threads)"},
		{"run", "banks", "int", "DRAM banks per channel"},
		{"run", "channels", "int", "independent channels; omitted for a single command stream"},
		{"run", "cpu_per_dram", "int", "CPU cycles per DRAM cycle (all cycle fields are DRAM cycles)"},
		{"run", "warmup_dram", "int", "measured window start, DRAM cycles"},
		{"run", "total_dram", "int", "run end, DRAM cycles"},
		{"run", "marking_cap", "int", "configured Marking-Cap; 0 = uncapped or unbatched policy"},
		{"run", "read_buf", "int", "request-buffer capacity (with marking_cap: the §4.3 bound)"},
		{"run", "events", "int", "event lines that follow"},
		{"run", "dropped", "int", "events discarded after the tracer's buffer filled"},
		{"arrive", "cycle", "int", "arrival cycle at the controller buffer"},
		{"arrive", "id", "int", "request ID, unique across channels"},
		{"arrive", "thread", "int", "issuing thread (core)"},
		{"arrive", "bank", "int", "target bank"},
		{"arrive", "row", "int", "target row"},
		{"arrive", "write", "bool", "true for a write (fire-and-forget)"},
		{"arrive", "channel", "int", "recording channel; omitted when 0"},
		{"mark", "cycle", "int", "cycle the request was marked into a batch"},
		{"mark", "id", "int", "request ID"},
		{"mark", "thread", "int", "issuing thread"},
		{"mark", "batch", "int", "batch index the request joined"},
		{"mark", "channel", "int", "recording channel; omitted when 0"},
		{"cmd", "cycle", "int", "issue cycle"},
		{"cmd", "id", "int", "serviced request ID; -1 for controller-initiated refresh"},
		{"cmd", "thread", "int", "request's thread; -1 for refresh"},
		{"cmd", "cmd", "string", "DRAM command mnemonic (ACT, PRE, RD, WR, REF)"},
		{"cmd", "bank", "int", "target bank"},
		{"cmd", "row", "int", "target row"},
		{"cmd", "rank", "int", "thread's rank at issue; -1 when the policy has none"},
		{"cmd", "channel", "int", "recording channel; omitted when 0"},
		{"done", "cycle", "int", "data-return cycle"},
		{"done", "id", "int", "request ID"},
		{"done", "thread", "int", "issuing thread"},
		{"done", "latency", "int", "arrival → return, DRAM cycles"},
		{"done", "channel", "int", "recording channel; omitted when 0"},
		{"batch", "cycle", "int", "formation cycle"},
		{"batch", "batch", "int", "batch index"},
		{"batch", "size", "int", "marked requests"},
		{"batch", "clipped", "int", "requests the Marking-Cap excluded"},
		{"batch", "per_thread", "[]int", "marked count per thread"},
		{"batch", "channel", "int", "recording channel; omitted when 0"},
		{"batch_end", "cycle", "int", "drain cycle (all marked requests serviced)"},
		{"batch_end", "batch", "int", "batch index"},
		{"batch_end", "duration", "int", "formation → drain, DRAM cycles"},
		{"batch_end", "channel", "int", "recording channel; omitted when 0"},
	}
}
