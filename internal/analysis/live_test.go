package analysis

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// fixtureJSONL renders the fixture log as a JSONL stream.
func fixtureJSONL(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, fixtureLog()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportJSON marshals a report for byte-identity comparison.
func reportJSON(t testing.TB, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLiveIngestConvergence pins the consistency model: a live ingester fed
// the stream in arbitrary chunk sizes converges to byte-identical final
// aggregates as the post-hoc Ingest → Analyze of the same bytes.
func TestLiveIngestConvergence(t *testing.T) {
	stream := fixtureJSONL(t)
	opt := Options{WindowCycles: 100, TopK: 3}

	post, err := Ingest(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, post.Analyze(opt))

	for _, chunkSize := range []int{1, 7, 64, 1 << 20} {
		li := NewLiveIngester()
		for off := 0; off < len(stream); off += chunkSize {
			end := min(off+chunkSize, len(stream))
			if err := li.Feed(stream[off:end]); err != nil {
				t.Fatalf("chunk %d: Feed: %v", chunkSize, err)
			}
		}
		li.Finalize()
		got := reportJSON(t, li.Report(opt))
		if !bytes.Equal(got, want) {
			t.Errorf("chunk size %d: live report diverges from post-hoc report", chunkSize)
		}
	}
}

// TestLiveIngestPrefixConsistency checks that a mid-stream report equals
// the post-hoc analysis of exactly the lines delivered so far.
func TestLiveIngestPrefixConsistency(t *testing.T) {
	stream := fixtureJSONL(t)
	opt := Options{WindowCycles: 100}

	// Split after the 6th line: a clean line boundary mid-stream.
	lines := bytes.SplitAfter(stream, []byte("\n"))
	prefix := bytes.Join(lines[:6], nil)

	li := NewLiveIngester()
	if err := li.Feed(prefix); err != nil {
		t.Fatal(err)
	}
	post, err := Ingest(bytes.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, li.Report(opt)), reportJSON(t, post.Analyze(opt)); !bytes.Equal(got, want) {
		t.Error("mid-stream live report diverges from post-hoc report of the same prefix")
	}

	// Feeding the rest and finalizing converges to the full report.
	if err := li.Feed(bytes.Join(lines[6:], nil)); err != nil {
		t.Fatal(err)
	}
	li.Finalize()
	full, err := Ingest(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, li.Report(opt)), reportJSON(t, full.Analyze(opt)); !bytes.Equal(got, want) {
		t.Error("final live report diverges from full post-hoc report")
	}
}

// TestLiveIngestBeforeHeader: no report exists until the header arrives.
func TestLiveIngestBeforeHeader(t *testing.T) {
	li := NewLiveIngester()
	if r := li.Report(Options{}); r != nil {
		t.Fatalf("report before header = %+v, want nil", r)
	}
	// A partial header line alone is not enough either.
	stream := fixtureJSONL(t)
	if err := li.Feed(stream[:10]); err != nil {
		t.Fatal(err)
	}
	if li.Report(Options{}) != nil {
		t.Fatal("partial header line must not produce a report")
	}
	if err := li.Feed(stream[10:]); err != nil {
		t.Fatal(err)
	}
	if li.Report(Options{}) == nil {
		t.Fatal("header not recognized after completion")
	}
}

// TestLiveIngestDamage: a malformed event line flags ingest truncation,
// keeps the prefix, and permanently stops consumption; a malformed header
// is a hard error.
func TestLiveIngestDamage(t *testing.T) {
	stream := fixtureJSONL(t)
	lines := bytes.SplitAfter(stream, []byte("\n"))

	li := NewLiveIngester()
	if err := li.Feed(bytes.Join(lines[:3], nil)); err != nil {
		t.Fatal(err)
	}
	before := li.Events()
	if err := li.Feed([]byte("{torn garbage\n")); err != nil {
		t.Fatalf("event damage must not error, got %v", err)
	}
	if err := li.Feed(bytes.Join(lines[3:], nil)); err != nil {
		t.Fatal(err)
	}
	if li.Events() != before {
		t.Errorf("events after damage = %d, want frozen at %d", li.Events(), before)
	}
	r := li.Report(Options{WindowCycles: 100})
	if !r.Truncated || !r.IngestTruncated {
		t.Errorf("damaged stream: Truncated=%v IngestTruncated=%v, want true/true", r.Truncated, r.IngestTruncated)
	}

	bad := NewLiveIngester()
	if err := bad.Feed([]byte("{bogus header\n")); err == nil {
		t.Fatal("bad header must error")
	}
	if err := bad.Feed(lines[0]); err == nil {
		t.Fatal("feeding after header damage must keep failing")
	}
}

// TestLiveFeedLogDropped: a log fed after its prefixes brings its own drop
// count, which marks the store truncated (record-time drops, not an
// ingest tear), and the report equals FromLog of that log.
func TestLiveFeedLogDropped(t *testing.T) {
	log := fixtureLog()
	opt := Options{WindowCycles: 100}
	li := NewLiveIngester()
	li.FeedLog(logPrefix(log, 5, 1))
	li.FeedLog(log) // no drops yet
	if r := li.Report(opt); r.Truncated || r.Dropped != 0 {
		t.Errorf("before drops: Truncated=%v Dropped=%d, want false/0", r.Truncated, r.Dropped)
	}
	dropped := *log
	dropped.Dropped = 17
	li.FeedLog(&dropped)
	r := li.Report(opt)
	if !r.Truncated || r.Dropped != 17 || r.IngestTruncated {
		t.Errorf("after 17 drops: Truncated=%v Dropped=%d IngestTruncated=%v, want true/17/false",
			r.Truncated, r.Dropped, r.IngestTruncated)
	}
	if got, want := reportJSON(t, r), reportJSON(t, FromLog(&dropped).Analyze(opt)); !bytes.Equal(got, want) {
		t.Errorf("live report diverges from FromLog:\nlive: %s\npost: %s", got, want)
	}
}

// logPrefix is log's first n events with its first shapes batch shapes,
// as a recording tracer publishes it mid-run (before any drop).
func logPrefix(log *trace.Log, n, shapes int) *trace.Log {
	p := *log
	p.Events = log.Events[:n]
	p.BatchPerThread = log.BatchPerThread[:shapes]
	p.Dropped = 0
	return &p
}

// TestLiveIngestFinalizeTail: a stream whose last line lacks the trailing
// newline still ingests completely once finalized (Scanner parity).
func TestLiveIngestFinalizeTail(t *testing.T) {
	stream := fixtureJSONL(t)
	trimmed := bytes.TrimSuffix(stream, []byte("\n"))

	li := NewLiveIngester()
	if err := li.Feed(trimmed); err != nil {
		t.Fatal(err)
	}
	n := li.Events()
	li.Finalize()
	if li.Events() != n+1 {
		t.Errorf("Finalize consumed %d events from the tail, want 1", li.Events()-n)
	}
	post, err := Ingest(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if li.Events() != post.Events() {
		t.Errorf("finalized events = %d, post-hoc = %d", li.Events(), post.Events())
	}
}

// overlongStream returns lines with line i widened to n bytes, newline not
// counted, by spaces after its opening brace. Unless terminated, the
// stream ends with that line, unterminated.
func overlongStream(lines [][]byte, i, n int, terminated bool) []byte {
	line := bytes.TrimSuffix(lines[i], []byte("\n"))
	out := bytes.Join(lines[:i], nil)
	out = append(out, '{')
	out = append(out, bytes.Repeat([]byte(" "), n-len(line))...)
	out = append(out, line[1:]...)
	if terminated {
		out = append(out, '\n')
		out = append(out, bytes.Join(lines[i+1:], nil)...)
	}
	return out
}

// TestLiveIngestOverlongLine: the live ingester and Ingest draw the same
// line-length limit, trace.MaxLineBytes, whether the line arrives whole or
// in the 64 KiB reads of parbs-trace report -follow. A longer event line
// tears the stream (the prefix before it stays, ingest-truncated), a
// longer header is fatal, and the ingester never holds more than the
// limit waiting for a newline.
func TestLiveIngestOverlongLine(t *testing.T) {
	lines := bytes.SplitAfter(fixtureJSONL(t), []byte("\n"))
	lines = lines[:len(lines)-1] // the empty split after the final newline
	last := len(lines) - 1
	events := last // every line after the header
	opt := Options{WindowCycles: 100}
	for _, tc := range []struct {
		name       string
		line, n    int
		terminated bool
		events     int // events Ingest keeps; -1 for a refused header
	}{
		{"event 17 MiB", 1, 17 << 20, true, 0},
		{"event at limit", 1, trace.MaxLineBytes, true, 0},
		{"event under limit", 1, trace.MaxLineBytes - 1, true, events},
		{"tail at limit", last, trace.MaxLineBytes, false, events - 1},
		{"tail under limit", last, trace.MaxLineBytes - 1, false, events},
		{"header at limit", 0, trace.MaxLineBytes, true, -1},
	} {
		stream := overlongStream(lines, tc.line, tc.n, tc.terminated)
		post, err := Ingest(bytes.NewReader(stream))
		var want []byte
		switch {
		case tc.events < 0:
			if err == nil {
				t.Fatalf("%s: Ingest accepted the header", tc.name)
			}
		case err != nil:
			t.Fatalf("%s: Ingest: %v", tc.name, err)
		case post.Events() != tc.events || post.IngestTruncated() != (tc.events < events):
			t.Fatalf("%s: Ingest kept %d events, ingest-truncated %v; want %d",
				tc.name, post.Events(), post.IngestTruncated(), tc.events)
		default:
			want = reportJSON(t, post.Analyze(opt))
		}
		for _, chunk := range []int{64 << 10, len(stream)} {
			li := NewLiveIngester()
			var ferr error
			held := 0
			for off := 0; off < len(stream); off += chunk {
				if err := li.Feed(stream[off:min(off+chunk, len(stream))]); err != nil && ferr == nil {
					ferr = err
				}
				held = max(held, len(li.buf))
			}
			li.Finalize()
			if got := li.Report(opt); (got == nil) != (want == nil) || got != nil && !bytes.Equal(reportJSON(t, got), want) {
				t.Errorf("%s, %d-byte chunks: live report differs from Ingest's", tc.name, chunk)
			}
			if (ferr != nil) != (tc.events < 0) {
				t.Errorf("%s, %d-byte chunks: Feed error %v", tc.name, chunk, ferr)
			}
			if chunk < len(stream) && held >= trace.MaxLineBytes {
				t.Errorf("%s: ingester held %d bytes of one line", tc.name, held)
			}
		}
	}
}
