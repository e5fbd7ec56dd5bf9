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
	if li.HeaderSeen() {
		t.Fatal("HeaderSeen before any input")
	}
	// A partial header line alone is not enough either.
	stream := fixtureJSONL(t)
	if err := li.Feed(stream[:10]); err != nil {
		t.Fatal(err)
	}
	if li.HeaderSeen() || li.Report(Options{}) != nil {
		t.Fatal("partial header line must not produce a report")
	}
	if err := li.Feed(stream[10:]); err != nil {
		t.Fatal(err)
	}
	if !li.HeaderSeen() || li.Report(Options{}) == nil {
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

// TestLiveIngestSetDropped: reconciling the record-time drop count after
// the run marks the store truncated.
func TestLiveIngestSetDropped(t *testing.T) {
	li := NewLiveIngester()
	if err := li.Feed(fixtureJSONL(t)); err != nil {
		t.Fatal(err)
	}
	li.Finalize()
	li.SetDropped(17)
	r := li.Report(Options{WindowCycles: 100})
	if !r.Truncated || r.Dropped != 17 || r.IngestTruncated {
		t.Errorf("after SetDropped(17): Truncated=%v Dropped=%d IngestTruncated=%v, want true/17/false",
			r.Truncated, r.Dropped, r.IngestTruncated)
	}
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
