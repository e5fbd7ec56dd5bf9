package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/trace"
)

// Job views embed result artifacts, one of them megabytes (the Chrome
// trace). The server checks the stored artifacts once, when the result is
// published, and stores them in the exact form encoding/json embeds a
// json.RawMessage. The Chrome trace is not stored: each response renders
// it from the result's event log, and trace.WriteChrome writes that form
// too. Each response then encodes only the small envelope, splices the
// stored artifacts in unscanned and streams the trace, and the bytes stay
// those that encoding/json would produce for the whole jobView (DESIGN.md
// §11, "Response encoding").

// jobView is the wire form of a job's status (GET /v1/runs/{id}, the
// submission response and the SSE done event). The server encodes only its
// envelope; compactView adds the artifacts and the error.
type jobView struct {
	Schema      string          `json:"schema"`
	ID          string          `json:"id"`
	Client      string          `json:"client"`
	Status      Status          `json:"status"`
	Cached      bool            `json:"cached"`
	Cost        int64           `json:"cost"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	WaitMS      int64           `json:"wait_ms"`
	DispatchSeq int64           `json:"dispatch_seq,omitempty"`
	Evicted     bool            `json:"evicted,omitempty"` // payload dropped by the retention budget
	Report      json.RawMessage `json:"report,omitempty"`
	Telemetry   json.RawMessage `json:"telemetry,omitempty"`
	Trace       json.RawMessage `json:"trace,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// publish validates a Runner's result and returns a copy whose artifacts
// are canonical (see Result). An artifact already in that form is kept
// without a copy. A nil result stays nil.
func publish(res *Result) (*Result, error) {
	if res == nil {
		return nil, nil
	}
	pub := *res
	for _, a := range [...]struct {
		name string
		raw  *json.RawMessage
	}{{"report", &pub.Report}, {"telemetry", &pub.Telemetry}} {
		c, err := canonicalArtifact(*a.raw)
		if err != nil {
			return nil, fmt.Errorf("invalid %s artifact: %w", a.name, err)
		}
		*a.raw = c
	}
	return &pub, nil
}

// canonicalArtifact checks that raw is one JSON value and returns it in the
// form encoding/json embeds a json.RawMessage: no whitespace outside
// strings, and <, >, &, U+2028 and U+2029 inside strings replaced by their
// six-byte backslash-u escapes (lower-case hex). One pass both validates
// and finds departures from that form. Surrounding whitespace is resliced
// away; raw is copied only when its interior departs from the form. An
// empty artifact stays empty (the view omits it).
func canonicalArtifact(raw json.RawMessage) (json.RawMessage, error) {
	if len(raw) == 0 {
		return raw, nil
	}
	s := canonScan{src: bytes.Trim(raw, " \t\r\n")}
	if len(s.src) == 0 || !s.value(0) || s.i != len(s.src) {
		// The scan reports no detail; encoding/json's names the error.
		if err := json.Compact(new(bytes.Buffer), raw); err != nil {
			return nil, err
		}
		return nil, errors.New("not valid JSON")
	}
	if s.out == nil {
		return s.src, nil
	}
	return append(s.out, s.src[s.start:]...), nil
}

// maxJSONDepth is encoding/json's nesting limit: deeper input is invalid.
const maxJSONDepth = 10000

// canonScan is a recursive-descent JSON validator that accepts exactly
// what encoding/json does and records the edits that make its input
// canonical.
type canonScan struct {
	src   []byte
	i     int    // next byte to scan
	out   []byte // nil until the first edit
	start int    // src[start:] is not yet in out
}

// edit replaces src[from:to] with repl in the output.
func (s *canonScan) edit(from, to int, repl ...byte) {
	if s.out == nil {
		s.out = make([]byte, 0, len(s.src)+len(s.src)/8)
	}
	s.out = append(append(s.out, s.src[s.start:from]...), repl...)
	s.start = to
}

func (s *canonScan) peek() byte {
	if s.i < len(s.src) {
		return s.src[s.i]
	}
	return 0
}

// space drops the whitespace at the scan position. Canonical input has
// none, so the check is kept small enough to inline.
func (s *canonScan) space() {
	if s.i < len(s.src) && s.src[s.i] <= ' ' {
		s.dropSpace()
	}
}

func (s *canonScan) dropSpace() {
	j := s.i
	for j < len(s.src) && (s.src[j] == ' ' || s.src[j] == '\t' || s.src[j] == '\r' || s.src[j] == '\n') {
		j++
	}
	if j > s.i {
		s.edit(s.i, j)
		s.i = j
	}
}

// value scans one value inside depth open objects and arrays.
func (s *canonScan) value(depth int) bool {
	switch c := s.peek(); {
	case c == '"':
		return s.str()
	case c == '{' || c == '[':
		if depth >= maxJSONDepth {
			return false
		}
		return s.container(depth + 1)
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return false
}

// container scans an object or array whose opening byte is next.
func (s *canonScan) container(depth int) bool {
	obj := s.src[s.i] == '{'
	end := byte(']')
	if obj {
		end = '}'
	}
	s.i++
	s.space()
	if s.peek() == end {
		s.i++
		return true
	}
	for {
		if obj {
			if s.peek() != '"' || !s.str() {
				return false
			}
			s.space()
			if s.peek() != ':' {
				return false
			}
			s.i++
			s.space()
		}
		if !s.value(depth) {
			return false
		}
		s.space()
		switch s.peek() {
		case ',':
			s.i++
			s.space()
		case end:
			s.i++
			return true
		default:
			return false
		}
	}
}

// strPlain marks the string bytes that need neither a check nor an edit.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[c] = false
	}
	return t
}()

// str scans a string whose opening quote is next.
func (s *canonScan) str() bool {
	src, i := s.src, s.i+1
	for {
		for i < len(src) && strPlain[src[i]] {
			i++
		}
		if i >= len(src) {
			return false
		}
		switch c := src[i]; {
		case c == '"':
			s.i = i + 1
			return true
		case c == '\\':
			if i+1 >= len(src) {
				return false
			}
			switch src[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(src) || !isHex(src[i+2]) || !isHex(src[i+3]) || !isHex(src[i+4]) || !isHex(src[i+5]) {
					return false
				}
				i += 6
			default:
				return false
			}
		case c < 0x20:
			return false
		case c == '<' || c == '>' || c == '&':
			s.edit(i, i+1, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			i++
		case c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8:
			s.edit(i, i+3, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
			i += 3
		default: // another character starting with 0xE2
			i++
		}
	}
}

// number scans -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *canonScan) number() bool {
	src, i := s.src, s.i
	if src[i] == '-' {
		i++
	}
	switch {
	case i < len(src) && src[i] == '0':
		i++
	case i < len(src) && '1' <= src[i] && src[i] <= '9':
		i = skipDigits(src, i)
	default:
		return false
	}
	if i < len(src) && src[i] == '.' {
		if i++; i >= len(src) || !isDigit(src[i]) {
			return false
		}
		i = skipDigits(src, i)
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		if i++; i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if i >= len(src) || !isDigit(src[i]) {
			return false
		}
		i = skipDigits(src, i)
	}
	s.i = i
	return true
}

func (s *canonScan) literal(lit string) bool {
	if !bytes.HasPrefix(s.src[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func skipDigits(src []byte, i int) int {
	for i < len(src) && isDigit(src[i]) {
		i++
	}
	return i
}

const hexDigits = "0123456789abcdef"

// viewBody is a job view in pieces whose concatenation is json.Marshal of
// the whole jobView: the encoded envelope without its closing brace and the
// stored artifacts, then the Chrome trace rendered from log, then the error
// and the brace.
type viewBody struct {
	head [][]byte
	log  *trace.Log // nil: no "trace" field
	tail [][]byte
}

// compactView returns the view of j at snap. The stored artifacts are the
// published (canonical) bytes themselves.
func compactView(j *Job, snap Snapshot) (viewBody, error) {
	v := jobView{
		Schema:      Schema,
		ID:          j.ID,
		Client:      j.Client,
		Status:      snap.Status,
		Cached:      snap.Cached,
		Cost:        j.Cost,
		SubmittedAt: snap.SubmittedAt,
		WaitMS:      snap.Wait(time.Now()).Milliseconds(),
		DispatchSeq: snap.DispatchSeq,
		Evicted:     snap.Evicted,
	}
	if !snap.StartedAt.IsZero() {
		v.StartedAt = &snap.StartedAt
	}
	if !snap.FinishedAt.IsZero() {
		v.FinishedAt = &snap.FinishedAt
	}
	env, err := json.Marshal(v)
	if err != nil {
		return viewBody{}, fmt.Errorf("encode job view: %w", err)
	}
	body := viewBody{head: [][]byte{env[:len(env)-1]}}
	field := func(parts [][]byte, key string, raw []byte) [][]byte {
		if len(raw) > 0 {
			parts = append(parts, []byte(`,"`+key+`":`), raw)
		}
		return parts
	}
	if r := snap.Result; r != nil {
		body.head = field(body.head, "report", r.Report)
		body.head = field(body.head, "telemetry", r.Telemetry)
		body.log = r.TraceLog
	}
	if snap.Err != "" {
		msg, err := json.Marshal(snap.Err)
		if err != nil {
			return viewBody{}, fmt.Errorf("encode job view: %w", err)
		}
		body.tail = field(body.tail, "error", msg)
	}
	body.tail = append(body.tail, []byte("}"))
	return body, nil
}

// writeTo writes the compact view to w, rendering the trace as it goes,
// and stops at the first write error.
func (b viewBody) writeTo(w io.Writer) error {
	if err := writeParts(w, b.head); err != nil {
		return err
	}
	if b.log != nil {
		if _, err := io.WriteString(w, `,"trace":`); err != nil {
			return err
		}
		if err := trace.WriteChrome(valueWriter{w}, b.log); err != nil {
			return err
		}
	}
	return writeParts(w, b.tail)
}

// writeParts writes each part in order, stopping at the first error.
func writeParts(w io.Writer, parts [][]byte) error {
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// valueWriter drops the newline trace.WriteChrome ends its document with,
// leaving the one JSON value. In compact JSON a raw newline can only be
// that terminator.
type valueWriter struct{ w io.Writer }

func (v valueWriter) Write(p []byte) (int, error) {
	if _, err := v.w.Write(bytes.TrimSuffix(p, []byte("\n"))); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeView serves j's view at snap with the bytes writeJSON would give it
// (indent "  ", trailing newline), streamed through a bounded buffer.
func writeView(w http.ResponseWriter, code int, j *Job, snap Snapshot) {
	body, err := compactView(j, snap)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	ind := &indenter{w: w, buf: make([]byte, 0, indentFlushAt+256)}
	if body.writeTo(ind) == nil {
		ind.buf = append(ind.buf, '\n')
		ind.flush()
	}
}

// writeDoneEvent writes the SSE done event carrying j's compact view at
// snap. A view that cannot be encoded ends the stream without one.
func writeDoneEvent(w io.Writer, j *Job, snap Snapshot) {
	body, err := compactView(j, snap)
	if err != nil {
		return
	}
	io.WriteString(w, "event: done\ndata: ")
	if body.writeTo(w) == nil {
		io.WriteString(w, "\n\n")
	}
}

// indentFlushAt is the buffered size at which an indenter writes out.
const indentFlushAt = 32 << 10

// indenter re-indents compact, valid JSON as json.Indent with prefix "" and
// indent "  " does: a newline and two spaces per depth after '{', '[' and
// ',', before '}' and ']', and a space after ':', with empty objects and
// arrays kept as {} and []. Valid compact input needs only string tracking.
// It buffers up to about indentFlushAt bytes; after a write error it drops
// the rest and returns the error.
type indenter struct {
	w     io.Writer
	buf   []byte
	err   error
	depth int
	open  bool // the last byte out opened an object or array
	inStr bool
	esc   bool // the previous string byte was an unescaped backslash
}

func (d *indenter) Write(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	// The state lives in locals so the loop keeps it in registers.
	buf, depth, open, inStr, esc := d.buf, d.depth, d.open, d.inStr, d.esc
	for i := 0; i < len(p); i++ {
		if len(buf) >= indentFlushAt {
			d.buf = buf
			if d.flush(); d.err != nil {
				return i, d.err
			}
			buf = d.buf
		}
		c := p[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			buf = append(buf, c)
			continue
		}
		if open && c != '}' && c != ']' {
			open = false
			depth++
			buf = appendNewline(buf, depth)
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			open = true
		case ',':
			buf = appendNewline(append(buf, c), depth)
			continue
		case ':':
			buf = append(buf, c, ' ')
			continue
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				buf = appendNewline(buf, depth)
			}
		}
		buf = append(buf, c)
	}
	d.buf, d.depth, d.open, d.inStr, d.esc = buf, depth, open, inStr, esc
	return len(p), nil
}

// appendNewline starts a line indented to depth.
func appendNewline(buf []byte, depth int) []byte {
	buf = append(buf, '\n')
	for k := 0; k < depth; k++ {
		buf = append(buf, ' ', ' ')
	}
	return buf
}

// flush writes the buffered bytes out and empties the buffer.
func (d *indenter) flush() {
	if d.err == nil && len(d.buf) > 0 {
		_, d.err = d.w.Write(d.buf)
	}
	d.buf = d.buf[:0]
}
