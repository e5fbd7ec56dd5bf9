package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/dram"
)

// TestCursorIncrementalMatchesWriteJSONL: flushing a cursor at arbitrary
// points mid-recording and concatenating the chunks yields the same stream
// as WriteJSONL, except for the header's event/drop counts (zero on the
// live path by design).
func TestCursorIncrementalMatchesWriteJSONL(t *testing.T) {
	tr := NewTracer(Config{MaxEvents: 64})
	tr.Bind(Meta{Policy: "PAR-BS", Workload: "test", Cores: 2, Banks: 2,
		Channels: 3, CPUPerDRAM: 4, WarmupDRAM: 100, TotalDRAM: 1000,
		MarkingCap: 2, ReadBufEntries: 4})
	var cur Cursor
	var live bytes.Buffer

	flush := func() {
		if err := cur.WriteNew(&live, tr.Log()); err != nil {
			t.Fatal(err)
		}
	}
	flush() // header-only chunk before any event
	tr.RequestArrived(1, 0, 1, 7, false, 0)
	tr.RequestArrived(2, 1, 0, 3, true, 5)
	flush()
	tr.RequestMarked(1, 0, 0, 10)
	tr.BatchFormedDetail(0, 10, 1, []int{1, 0}, 1)
	flush()
	flush() // nothing new: must append nothing
	tr.CommandIssued(1, 0, dram.CmdActivate, 1, 7, 0, 20)
	tr.RequestCompleted(1, 0, 50, 50)
	tr.BatchDrained(0, 60, 50)
	flush()

	var whole bytes.Buffer
	if err := WriteJSONL(&whole, tr.Log()); err != nil {
		t.Fatal(err)
	}
	liveLines := bytes.Split(live.Bytes(), []byte("\n"))
	wholeLines := bytes.Split(whole.Bytes(), []byte("\n"))
	if len(liveLines) != len(wholeLines) {
		t.Fatalf("live stream has %d lines, whole log %d", len(liveLines), len(wholeLines))
	}
	// Event lines must match byte for byte (the batch per-thread shape
	// included); headers differ only in events/dropped.
	for i := 1; i < len(liveLines); i++ {
		if !bytes.Equal(liveLines[i], wholeLines[i]) {
			t.Errorf("line %d diverged:\nlive:  %s\nwhole: %s", i, liveLines[i], wholeLines[i])
		}
	}
	var liveHdr, wholeHdr map[string]any
	if err := json.Unmarshal(liveLines[0], &liveHdr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wholeLines[0], &wholeHdr); err != nil {
		t.Fatal(err)
	}
	if liveHdr["events"] != float64(0) || liveHdr["dropped"] != float64(0) {
		t.Errorf("live header counts = %v/%v, want 0/0", liveHdr["events"], liveHdr["dropped"])
	}
	liveHdr["events"] = wholeHdr["events"]
	for k, v := range wholeHdr {
		if liveHdr[k] != v {
			t.Errorf("header field %q: live %v, whole %v", k, liveHdr[k], v)
		}
	}

	// The live stream must itself be a valid parbs.trace/v1 log.
	if _, err := readLog(bytes.NewReader(live.Bytes())); err != nil {
		t.Errorf("concatenated live stream unreadable: %v", err)
	}
}

// TestJSONLHeaderCarriesChannels: the header round-trips the channel count
// (multi-channel runs must not collapse to single-channel on re-read).
func TestJSONLHeaderCarriesChannels(t *testing.T) {
	tr := NewTracer(Config{})
	tr.Bind(Meta{Policy: "FR-FCFS", Workload: "w", Cores: 4, Banks: 8,
		Channels: 4, TotalDRAM: 100})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Log()); err != nil {
		t.Fatal(err)
	}
	back, err := readLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Channels != 4 {
		t.Errorf("channels after round trip = %d, want 4", back.Meta.Channels)
	}
}

// TestParseHeaderAndEventLine: the exported line parsers agree with the
// scanner's view of the same stream.
func TestParseHeaderAndEventLine(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Log()); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))

	meta, dropped, events, err := ParseHeader(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta != tr.meta || dropped != 0 || events != tr.Events() {
		t.Errorf("ParseHeader = %+v/%d/%d", meta, dropped, events)
	}
	if _, _, _, err := ParseHeader([]byte(`{"schema":"bogus/v9","kind":"run"}`)); err == nil {
		t.Error("wrong schema accepted")
	}

	log := tr.Log()
	for i, raw := range lines[1:] {
		ev, pt, err := ParseEventLine(raw)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if ev != log.Events[i] {
			t.Errorf("line %d: event %+v, want %+v", i+1, ev, log.Events[i])
		}
		if ev.Kind == KindBatch && len(pt) != 2 {
			t.Errorf("line %d: batch per-thread = %v", i+1, pt)
		}
	}
}
