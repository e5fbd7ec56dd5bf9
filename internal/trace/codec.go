package trace

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/dram"
)

// Hand-written codec for parbs.trace/v1 event lines. The header line stays
// on encoding/json (it is written and read once per log); the per-event
// paths — WriteJSONL, Scanner.Next and ParseEventLine — use the appenders
// and the single-pass decoder below, which do no reflection and, outside
// batch shapes, no allocation.
//
// Contract: the encoder writes exactly the bytes encoding/json wrote for
// the former per-kind wire structs, and the decoder agrees with
// json.Unmarshal into those structs on every input, in both directions —
// the same Event and per-thread shape whenever either accepts, an error
// whenever either errors. That covers encoding/json's quirks: keys match
// fields case-insensitively (including its U+017F and U+212A folds), the
// last duplicate wins, null leaves a scalar field unchanged but nils the
// shape, unknown keys are validated and skipped, fields of other line
// kinds are ignored, and nesting deeper than 10000 is a syntax error. The
// reflective decoder survives only as the test oracle (oracle_test.go),
// and FuzzParseEventLine checks the two against each other.

// Wire fields of event lines, one bit each; kindFields says which of them
// each line kind's decoder honours (the rest are skipped as unknown keys).
const (
	iKind = iota
	iCycle
	iID
	iThread
	iBank
	iRow
	iWrite
	iChannel
	iBatch
	iCmd
	iRank
	iLatency
	iSize
	iClipped
	iPerThread
	iDuration
	nFields
)

// fieldNames names each wire field; the decoder's key switch and the
// error messages use it.
var fieldNames = [nFields]string{"kind", "cycle", "id", "thread", "bank", "row",
	"write", "channel", "batch", "cmd", "rank", "latency", "size", "clipped",
	"per_thread", "duration"}

func bits(fields ...int) uint32 {
	var m uint32
	for _, f := range fields {
		m |= 1 << f
	}
	return m
}

// kindFields lists the wire fields of each line kind, "kind" included.
var kindFields = [...]uint32{
	KindArrive:   bits(iKind, iCycle, iID, iThread, iBank, iRow, iWrite, iChannel),
	KindMark:     bits(iKind, iCycle, iID, iThread, iBatch, iChannel),
	KindCommand:  bits(iKind, iCycle, iID, iThread, iCmd, iBank, iRow, iRank, iChannel),
	KindComplete: bits(iKind, iCycle, iID, iThread, iLatency, iChannel),
	KindBatch:    bits(iKind, iCycle, iBatch, iSize, iClipped, iPerThread, iChannel),
	KindBatchEnd: bits(iKind, iCycle, iBatch, iDuration, iChannel),
}

// int32Fields are the fields decoded as int32 (the rest of the numeric
// fields are int64).
var int32Fields = bits(iThread, iBank, iRank, iClipped, iChannel)

// ---- encoder ----

// appendInt appends key (the separator, the quoted name and the colon)
// and v.
func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendEventLine appends ev's JSONL line, newline included. pt is the
// per-thread shape of a KindBatch event; nil is written as null.
func appendEventLine(dst []byte, ev Event, pt []int32) ([]byte, error) {
	switch ev.Kind {
	case KindArrive:
		dst = appendInt(dst, `{"kind":"arrive","cycle":`, ev.Cycle)
		dst = appendInt(dst, `,"id":`, ev.Req)
		dst = appendInt(dst, `,"thread":`, int64(ev.Thread))
		dst = appendInt(dst, `,"bank":`, int64(ev.Bank))
		dst = appendInt(dst, `,"row":`, ev.Row)
		dst = strconv.AppendBool(append(dst, `,"write":`...), ev.Write)
	case KindMark:
		dst = appendInt(dst, `{"kind":"mark","cycle":`, ev.Cycle)
		dst = appendInt(dst, `,"id":`, ev.Req)
		dst = appendInt(dst, `,"thread":`, int64(ev.Thread))
		dst = appendInt(dst, `,"batch":`, ev.Row)
	case KindCommand:
		dst = appendInt(dst, `{"kind":"cmd","cycle":`, ev.Cycle)
		dst = appendInt(dst, `,"id":`, ev.Req)
		dst = appendInt(dst, `,"thread":`, int64(ev.Thread))
		dst = appendString(append(dst, `,"cmd":`...), dram.Command(ev.Cmd).String())
		dst = appendInt(dst, `,"bank":`, int64(ev.Bank))
		dst = appendInt(dst, `,"row":`, ev.Row)
		dst = appendInt(dst, `,"rank":`, int64(ev.Rank))
	case KindComplete:
		dst = appendInt(dst, `{"kind":"done","cycle":`, ev.Cycle)
		dst = appendInt(dst, `,"id":`, ev.Req)
		dst = appendInt(dst, `,"thread":`, int64(ev.Thread))
		dst = appendInt(dst, `,"latency":`, ev.Row)
	case KindBatch:
		dst = appendInt(dst, `{"kind":"batch","cycle":`, ev.Cycle)
		dst = appendInt(dst, `,"batch":`, ev.Req)
		dst = appendInt(dst, `,"size":`, ev.Row)
		dst = appendInt(dst, `,"clipped":`, int64(ev.Rank))
		dst = append(dst, `,"per_thread":`...)
		if pt == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i, n := range pt {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(n), 10)
			}
			dst = append(dst, ']')
		}
	case KindBatchEnd:
		dst = appendInt(dst, `{"kind":"batch_end","cycle":`, ev.Cycle)
		dst = appendInt(dst, `,"batch":`, ev.Req)
		dst = appendInt(dst, `,"duration":`, ev.Row)
	default:
		return dst, fmt.Errorf("trace: unknown event kind %d", ev.Kind)
	}
	if ev.Channel != 0 {
		dst = appendInt(dst, `,"channel":`, int64(ev.Channel))
	}
	return append(dst, "}\n"...), nil
}

// htmlSafe reports whether encoding/json writes the ASCII byte b verbatim
// inside a string (its default, HTML-escaping mode).
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json writes
// it by default: HTML-significant bytes as \u escapes, short escapes for
// \b \f \n \r \t, other control bytes as \u00XX, invalid UTF-8 as \ufffd,
// and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ---- decoder ----

// maxDepth is encoding/json's nesting limit; the line's own object is
// depth 1.
const maxDepth = 10000

// lineDecoder decodes event lines. The zero value is ready; a decoder kept
// across lines (the Scanner's) reuses its per-thread scratch, so shapes it
// returns alias that scratch until the next decode.
type lineDecoder struct {
	in  []byte
	pos int

	vals [nFields]int64 // decoded values; kind and cmd hold -1 when unknown
	bad  uint32         // fields that received a value of the wrong type
	// kindTok and cmdTok are the raw tokens of the last kind and cmd
	// strings, for error messages.
	kindTok, cmdTok []byte

	// The per-thread shape. encoding/json decodes repeated per_thread
	// arrays into one growing slice, so a null element keeps whatever the
	// line's earlier arrays left at its index; mem models that backing
	// memory, memLen counts its cells live on this line, and ptLen is the
	// shape's length (-1 for nil).
	mem    []int32
	memLen int
	ptLen  int
}

// ParseEventLine decodes one JSONL event line. perThread is non-nil only
// for KindBatch lines and is freshly allocated, so callers may keep it.
// Exported for line-at-a-time consumers that cannot hand the Scanner a
// contiguous reader (live tailing of a growing stream).
func ParseEventLine(raw []byte) (Event, []int32, error) {
	var d lineDecoder
	return d.decode(raw)
}

// errSyntax reports malformed JSON at the decoder's position.
func (d *lineDecoder) errSyntax() error {
	if d.pos >= len(d.in) {
		return fmt.Errorf("trace: unexpected end of event line")
	}
	return fmt.Errorf("trace: invalid character %q at byte %d of event line", d.in[d.pos], d.pos)
}

// decode parses one event line.
func (d *lineDecoder) decode(in []byte) (Event, []int32, error) {
	d.in, d.pos, d.bad = in, 0, 0
	clear(d.vals[:])
	d.vals[iKind], d.vals[iCmd] = -1, -1
	d.kindTok, d.cmdTok = nil, nil
	d.memLen, d.ptLen = 0, -1
	if err := d.object(); err != nil {
		return Event{}, nil, err
	}
	k := d.vals[iKind]
	if k < 0 {
		if d.kindTok == nil {
			return Event{}, nil, fmt.Errorf(`trace: unknown kind ""`)
		}
		return Event{}, nil, fmt.Errorf("trace: unknown kind %s", d.kindTok)
	}
	if bad := d.bad & kindFields[k]; bad != 0 {
		for f := range nFields {
			if bad&(1<<f) != 0 {
				return Event{}, nil, fmt.Errorf("trace: %s line: field %q has the wrong type or range", Kind(k), fieldNames[f])
			}
		}
	}
	v := &d.vals
	ev := Event{Kind: Kind(k), Cycle: v[iCycle], Channel: int32(v[iChannel])}
	switch ev.Kind {
	case KindArrive:
		ev.Req, ev.Thread, ev.Bank, ev.Row, ev.Write = v[iID], int32(v[iThread]), int32(v[iBank]), v[iRow], v[iWrite] != 0
	case KindMark:
		ev.Req, ev.Thread, ev.Row = v[iID], int32(v[iThread]), v[iBatch]
	case KindCommand:
		if v[iCmd] < 0 {
			if d.cmdTok == nil {
				return Event{}, nil, fmt.Errorf(`trace: unknown command ""`)
			}
			return Event{}, nil, fmt.Errorf("trace: unknown command %s", d.cmdTok)
		}
		ev.Req, ev.Thread, ev.Bank, ev.Row, ev.Rank, ev.Cmd = v[iID], int32(v[iThread]), int32(v[iBank]), v[iRow], int32(v[iRank]), uint8(v[iCmd])
	case KindComplete:
		ev.Req, ev.Thread, ev.Row = v[iID], int32(v[iThread]), v[iLatency]
	case KindBatch:
		ev.Req, ev.Row, ev.Rank = v[iBatch], v[iSize], int32(v[iClipped])
		switch {
		case d.ptLen < 0:
			return ev, nil, nil
		case d.mem == nil:
			return ev, []int32{}, nil
		default:
			return ev, d.mem[:d.ptLen:d.ptLen], nil
		}
	case KindBatchEnd:
		ev.Req, ev.Row = v[iBatch], v[iDuration]
	}
	return ev, nil, nil
}

func (d *lineDecoder) skipWS() {
	for d.pos < len(d.in) && isSpace(d.in[d.pos]) {
		d.pos++
	}
}

// isSpace reports JSON whitespace; the first test settles compact input.
func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// peek returns the next byte, or 0 at the end of input (never valid JSON
// at a value or separator position).
func (d *lineDecoder) peek() byte {
	if d.pos < len(d.in) {
		return d.in[d.pos]
	}
	return 0
}

// object parses the line's top-level object and checks nothing but
// whitespace follows it.
func (d *lineDecoder) object() error {
	d.skipWS()
	if d.peek() != '{' {
		return d.errSyntax()
	}
	d.pos++
	d.skipWS()
	if d.peek() == '}' {
		d.pos++
	} else {
		for {
			if d.peek() != '"' {
				return d.errSyntax()
			}
			body, simple, err := d.str()
			if err != nil {
				return err
			}
			f := keyField(body, simple)
			d.skipWS()
			if d.peek() != ':' {
				return d.errSyntax()
			}
			d.pos++
			d.skipWS()
			if err := d.field(f); err != nil {
				return err
			}
			d.skipWS()
			c := d.peek()
			d.pos++
			if c == '}' {
				break
			}
			if c != ',' {
				d.pos--
				return d.errSyntax()
			}
			d.skipWS()
		}
	}
	d.skipWS()
	if d.pos != len(d.in) {
		return d.errSyntax()
	}
	return nil
}

// field decodes the value of wire field f (-1: unknown key, skipped).
func (d *lineDecoder) field(f int) error {
	c := d.peek()
	if f >= 0 && c == 'n' {
		// null leaves every field but the shape untouched.
		if err := d.literal("null"); err != nil {
			return err
		}
		if f == iPerThread {
			d.ptLen, d.memLen = -1, 0
		}
		return nil
	}
	switch f {
	case -1:
		return d.skip(1)
	case iKind, iCmd:
		if c != '"' {
			d.bad |= 1 << f
			return d.skip(1)
		}
		start := d.pos
		body, simple, err := d.str()
		if err != nil {
			return err
		}
		if f == iKind {
			d.vals[iKind], d.kindTok = kindByName(body, simple), d.in[start:d.pos]
		} else {
			d.vals[iCmd], d.cmdTok = commandByWire(body, simple), d.in[start:d.pos]
		}
		return nil
	case iWrite:
		switch c {
		case 't':
			d.vals[iWrite] = 1
			return d.literal("true")
		case 'f':
			d.vals[iWrite] = 0
			return d.literal("false")
		}
		d.bad |= 1 << f
		return d.skip(1)
	case iPerThread:
		if c != '[' {
			d.bad |= 1 << f
			return d.skip(1)
		}
		return d.shape()
	}
	if c != '-' && (c < '0' || c > '9') {
		d.bad |= 1 << f
		return d.skip(1)
	}
	v, ok, err := d.number()
	if err != nil {
		return err
	}
	if !ok || int32Fields&(1<<f) != 0 && int64(int32(v)) != v {
		d.bad |= 1 << f
		return nil
	}
	d.vals[f] = v
	return nil
}

// shape decodes a per_thread array at depth 2.
func (d *lineDecoder) shape() error {
	d.pos++ // '['
	d.skipWS()
	if d.peek() == ']' {
		d.pos++
		d.ptLen, d.memLen = 0, 0
		return nil
	}
	n := 0
	for {
		// The element's cell exists (zeroed if new) before it is decoded.
		for ; d.memLen <= n; d.memLen++ {
			if d.memLen < len(d.mem) {
				d.mem[d.memLen] = 0
			} else {
				d.mem = append(d.mem, 0)
			}
		}
		switch c := d.peek(); {
		case c == '-' || c >= '0' && c <= '9':
			v, ok, err := d.number()
			if err != nil {
				return err
			}
			if ok && int64(int32(v)) == v {
				d.mem[n] = int32(v)
			} else {
				d.bad |= 1 << iPerThread
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			d.bad |= 1 << iPerThread
			if err := d.skip(2); err != nil {
				return err
			}
		}
		n++
		d.skipWS()
		c := d.peek()
		d.pos++
		if c == ']' {
			d.ptLen = n
			return nil
		}
		if c != ',' {
			d.pos--
			return d.errSyntax()
		}
		d.skipWS()
	}
}

// literal consumes the exact bytes of lit (true, false or null).
func (d *lineDecoder) literal(lit string) error {
	if len(d.in)-d.pos < len(lit) || string(d.in[d.pos:d.pos+len(lit)]) != lit {
		for i := 0; i < len(lit) && d.pos < len(d.in) && d.in[d.pos] == lit[i]; i++ {
			d.pos++
		}
		return d.errSyntax()
	}
	d.pos += len(lit)
	return nil
}

// number consumes a JSON number. ok reports whether it is an integer that
// fits int64 (encoding/json's test for integer fields: ParseInt succeeds).
func (d *lineDecoder) number() (v int64, ok bool, err error) {
	in := d.in
	i := d.pos
	neg := i < len(in) && in[i] == '-'
	if neg {
		i++
	}
	var u uint64
	overflow := false
	switch {
	case i < len(in) && in[i] == '0':
		i++
	case i < len(in) && in[i] >= '1' && in[i] <= '9':
		for ; i < len(in) && in[i] >= '0' && in[i] <= '9'; i++ {
			if u > (1<<64-1-9)/10 {
				overflow = true
			}
			u = u*10 + uint64(in[i]-'0')
		}
	default:
		d.pos = i
		return 0, false, d.errSyntax()
	}
	isInt := true
	if i < len(in) && in[i] == '.' {
		isInt = false
		i++
		if i >= len(in) || in[i] < '0' || in[i] > '9' {
			d.pos = i
			return 0, false, d.errSyntax()
		}
		for i < len(in) && in[i] >= '0' && in[i] <= '9' {
			i++
		}
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		isInt = false
		i++
		if i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		if i >= len(in) || in[i] < '0' || in[i] > '9' {
			d.pos = i
			return 0, false, d.errSyntax()
		}
		for i < len(in) && in[i] >= '0' && in[i] <= '9' {
			i++
		}
	}
	d.pos = i
	if !isInt || overflow {
		return 0, false, nil
	}
	if neg {
		if u > 1<<63 {
			return 0, false, nil
		}
		return int64(-u), true, nil
	}
	if u > 1<<63-1 {
		return 0, false, nil
	}
	return int64(u), true, nil
}

// str consumes a JSON string and returns its body (between the quotes,
// still escaped). simple reports a body without escapes or non-ASCII
// bytes, which reads as itself.
func (d *lineDecoder) str() (body []byte, simple bool, err error) {
	in := d.in
	start := d.pos + 1 // past the opening quote
	simple = true
	for i := start; i < len(in); {
		if plainByte[in[i]] {
			i++
			continue
		}
		switch c := in[i]; {
		case c == '"':
			d.pos = i + 1
			return in[start:i], simple, nil
		case c == '\\':
			simple = false
			if i+1 >= len(in) {
				d.pos = len(in)
				return nil, false, d.errSyntax()
			}
			switch in[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(in) || !isHex(in[j]) {
						d.pos = j
						return nil, false, d.errSyntax()
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return nil, false, d.errSyntax()
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.errSyntax()
		default:
			if c >= utf8.RuneSelf {
				simple = false
			}
			i++
		}
	}
	d.pos = len(in)
	return nil, false, d.errSyntax()
}

// plainByte marks the bytes that stand for themselves inside a simple
// string: printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) rune {
	switch {
	case c <= '9':
		return rune(c - '0')
	case c >= 'a':
		return rune(c-'a') + 10
	default:
		return rune(c-'A') + 10
	}
}

// skip validates and discards one JSON value whose container sits at
// depth.
func (d *lineDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth+1 > maxDepth {
			return fmt.Errorf("trace: event line nests deeper than %d", maxDepth)
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		d.pos++
		d.skipWS()
		if d.peek() == end {
			d.pos++
			return nil
		}
		for {
			if c == '{' {
				if d.peek() != '"' {
					return d.errSyntax()
				}
				if _, _, err := d.str(); err != nil {
					return err
				}
				d.skipWS()
				if d.peek() != ':' {
					return d.errSyntax()
				}
				d.pos++
				d.skipWS()
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.skipWS()
			next := d.peek()
			d.pos++
			if next == end {
				return nil
			}
			if next != ',' {
				d.pos--
				return d.errSyntax()
			}
			d.skipWS()
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		_, _, err := d.number()
		return err
	default:
		return d.errSyntax()
	}
}

// maxName is the longest wire name a key or string value can match
// ("per_thread").
const maxName = 10

// upperNames holds fieldNames upper-cased, the form keys are matched in.
var upperNames = func() (u [nFields]string) {
	for f, name := range fieldNames {
		u[f] = strings.ToUpper(name)
	}
	return u
}()

// unquote decodes a string body (validated by str) into out. With fold
// set it case-folds the way encoding/json matches keys to fields: ASCII
// letters upper-cased, U+017F to 'S' and U+212A to 'K'. It reports false
// when the result would not be pure ASCII of at most maxName bytes, since
// such a string equals no wire name.
func unquote(body []byte, fold bool, out *[maxName]byte) (int, bool) {
	n := 0
	for i := 0; i < len(body); {
		var r rune
		switch c := body[i]; {
		case c == '\\':
			switch e := body[i+1]; e {
			case 'u':
				r = hexVal(body[i+2])<<12 | hexVal(body[i+3])<<8 | hexVal(body[i+4])<<4 | hexVal(body[i+5])
				i += 6
				if utf16.IsSurrogate(r) {
					// A pair decodes above U+FFFF and a lone half to
					// U+FFFD: neither is ASCII.
					return 0, false
				}
			case 'b':
				r, i = '\b', i+2
			case 'f':
				r, i = '\f', i+2
			case 'n':
				r, i = '\n', i+2
			case 'r':
				r, i = '\r', i+2
			case 't':
				r, i = '\t', i+2
			default: // '"', '\\', '/'
				r, i = rune(e), i+2
			}
		case c < utf8.RuneSelf:
			r = rune(c)
			i++
		default:
			var size int
			r, size = utf8.DecodeRune(body[i:])
			i += size
		}
		if fold {
			switch {
			case r >= 'a' && r <= 'z':
				r -= 'a' - 'A'
			case r == '\u017f':
				r = 'S'
			case r == '\u212a':
				r = 'K'
			}
		}
		if r >= utf8.RuneSelf || n == maxName {
			return 0, false
		}
		out[n] = byte(r)
		n++
	}
	return n, true
}

// keyField maps an object key to its wire field, or -1.
func keyField(body []byte, simple bool) int {
	if simple { // the exact names, the common case
		switch string(body) {
		case "kind":
			return iKind
		case "cycle":
			return iCycle
		case "id":
			return iID
		case "thread":
			return iThread
		case "bank":
			return iBank
		case "row":
			return iRow
		case "write":
			return iWrite
		case "channel":
			return iChannel
		case "batch":
			return iBatch
		case "cmd":
			return iCmd
		case "rank":
			return iRank
		case "latency":
			return iLatency
		case "size":
			return iSize
		case "clipped":
			return iClipped
		case "per_thread":
			return iPerThread
		case "duration":
			return iDuration
		}
	}
	var buf [maxName]byte
	n, ok := unquote(body, true, &buf)
	if !ok {
		return -1
	}
	for f, name := range upperNames {
		if string(buf[:n]) == name {
			return f
		}
	}
	return -1
}

// wireName returns the decoded string body when it can equal a wire name
// (pure ASCII, at most maxName bytes), using buf for escaped bodies.
func wireName(body []byte, simple bool, buf *[maxName]byte) ([]byte, bool) {
	if simple {
		return body, true
	}
	n, ok := unquote(body, false, buf)
	return buf[:n], ok
}

// kindByName maps a kind string body to its Kind, or -1.
func kindByName(body []byte, simple bool) int64 {
	var buf [maxName]byte
	if s, ok := wireName(body, simple, &buf); ok {
		for k := KindArrive; k <= KindBatchEnd; k++ {
			if string(s) == k.String() {
				return int64(k)
			}
		}
	}
	return -1
}

// commandByWire maps a command mnemonic body to its dram.Command, or -1.
func commandByWire(body []byte, simple bool) int64 {
	var buf [maxName]byte
	if s, ok := wireName(body, simple, &buf); ok {
		for c := dram.CmdNone; c <= dram.CmdRefresh; c++ {
			if string(s) == c.String() {
				return int64(c)
			}
		}
	}
	return -1
}
