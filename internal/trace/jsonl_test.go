package trace

import (
	"bytes"
	"testing"
)

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
