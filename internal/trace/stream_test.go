package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dram"
)

// streamFixture records a tiny two-request run and renders it to JSONL.
func streamFixture(t *testing.T) (*Log, string) {
	t.Helper()
	tr := NewTracer(Config{})
	tr.Bind(Meta{Policy: "PAR-BS", Workload: "synthetic", Cores: 2, Banks: 2,
		MarkingCap: 2, ReadBufEntries: 4, TotalDRAM: 1000})
	tr.RequestArrived(1, 0, 0, 7, false, 0)
	tr.RequestMarked(1, 0, 0, 10)
	tr.BatchFormedDetail(0, 10, 1, []int{1, 0}, 0)
	tr.CommandIssued(1, 0, dram.CmdActivate, 0, 7, 0, 20)
	tr.RequestCompleted(1, 0, 50, 50)
	tr.BatchDrained(0, 50, 40)
	tr.RequestArrived(2, 1, 1, 9, false, 60)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Log()); err != nil {
		t.Fatal(err)
	}
	return tr.Log(), buf.String()
}

// TestScannerMatchesReadLog: streaming the fixture yields exactly the
// events the tracer recorded, including the per-thread batch shape.
func TestScannerMatchesReadLog(t *testing.T) {
	want, jsonl := streamFixture(t)
	sc, err := NewScanner(strings.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Meta() != want.Meta {
		t.Errorf("Meta = %+v, want %+v", sc.Meta(), want.Meta)
	}
	if sc.HeaderEvents() != len(want.Events) || sc.Dropped() != 0 {
		t.Errorf("header events=%d dropped=%d, want %d/0",
			sc.HeaderEvents(), sc.Dropped(), len(want.Events))
	}
	var got []Event
	var batchPT [][]int32
	for {
		ev, pt, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
		if ev.Kind == KindBatch {
			batchPT = append(batchPT, append([]int32(nil), pt...))
		}
	}
	if len(got) != len(want.Events) {
		t.Fatalf("streamed %d events, want %d", len(got), len(want.Events))
	}
	for i := range got {
		if got[i] != want.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want.Events[i])
		}
	}
	if len(batchPT) != 1 || len(batchPT[0]) != 2 || batchPT[0][0] != 1 {
		t.Errorf("batch per-thread = %v, want [[1 0]]", batchPT)
	}
}

// TestScannerTruncatedMidLine: a log cut mid-line delivers every complete
// prefix event and then ErrTruncated, never an error that hides the prefix.
func TestScannerTruncatedMidLine(t *testing.T) {
	_, jsonl := streamFixture(t)
	lines := strings.SplitAfter(strings.TrimRight(jsonl, "\n"), "\n")
	// Cut the final line in half (it is the second arrive).
	last := lines[len(lines)-1]
	cut := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]

	sc, err := NewScanner(strings.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, _, err := sc.Next()
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("Next err = %v, want ErrTruncated", err)
			}
			break
		}
		n++
	}
	if n != 6 { // 7 events minus the cut tail
		t.Errorf("delivered %d prefix events, want 6", n)
	}
}

// TestScannerGarbageMidStream: damage in the middle of the stream also
// degrades to the parseable prefix plus ErrTruncated.
func TestScannerGarbageMidStream(t *testing.T) {
	_, jsonl := streamFixture(t)
	lines := strings.SplitAfter(strings.TrimRight(jsonl, "\n"), "\n")
	mangled := strings.Join(lines[:4], "") + "{\"kind\": \"arr\x00ve\", not json\n" + strings.Join(lines[4:], "")
	sc, err := NewScanner(strings.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, _, err := sc.Next()
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("Next err = %v, want ErrTruncated", err)
			}
			break
		}
		n++
	}
	if n != 3 { // 3 complete event lines precede the damage
		t.Errorf("delivered %d prefix events, want 3", n)
	}
}

// TestScannerRejectsBadHeader: header damage is fatal — nothing after it
// can be trusted.
func TestScannerRejectsBadHeader(t *testing.T) {
	if _, err := NewScanner(strings.NewReader("")); err == nil {
		t.Error("empty stream: want error")
	}
	if _, err := NewScanner(strings.NewReader("{\"schema\":\"parbs.trace/v0\",\"kind\":\"run\"}\n")); err == nil {
		t.Error("wrong schema: want error")
	}
	if _, err := NewScanner(strings.NewReader("{not json\n")); err == nil {
		t.Error("mangled header: want error")
	}
}

// lineKeys returns the top-level keys of one JSON line, in order.
func lineKeys(t *testing.T, line []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%s: not an object (%v)", line, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestSchemaFieldsMatchWire makes the schema table the source of truth the
// codec is checked against: for every line kind, the encoder writes
// exactly the table's keys in the table's order (after the "kind"
// discriminator), the header writes exactly the run keys, and the decoder
// reads exactly the table's fields.
func TestSchemaFieldsMatchWire(t *testing.T) {
	want := map[string][]string{}
	for _, f := range SchemaFields() {
		want[f.Line] = append(want[f.Line], f.Field)
	}
	kinds := []Kind{KindArrive, KindMark, KindCommand, KindComplete, KindBatch, KindBatchEnd}
	if len(want) != len(kinds)+1 {
		t.Errorf("schema table documents %d line kinds, want %d", len(want), len(kinds)+1)
	}
	for _, k := range kinds {
		// Every field set, so no optional key is left out.
		ev := Event{Kind: k, Cycle: 1, Req: 2, Row: 3, Thread: 4, Bank: 5, Rank: 6,
			Channel: 7, Cmd: uint8(dram.CmdRead), Write: true}
		line, err := appendEventLine(nil, ev, []int32{1})
		if err != nil {
			t.Fatal(err)
		}
		got := lineKeys(t, line)
		if !reflect.DeepEqual(got, append([]string{"kind"}, want[k.String()]...)) {
			t.Errorf("%s line keys %v, schema table %v", k, got, want[k.String()])
		}
		var read []string
		for f, name := range fieldNames {
			if kindFields[k]&(1<<f) != 0 && name != "kind" {
				read = append(read, name)
			}
		}
		sort.Strings(read)
		doc := append([]string(nil), want[k.String()]...)
		sort.Strings(doc)
		if !reflect.DeepEqual(read, doc) {
			t.Errorf("%s decoder reads %v, schema table %v", k, read, doc)
		}
	}
	hdr, err := appendHeaderLine(nil, Meta{Channels: 2}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := lineKeys(t, hdr); !reflect.DeepEqual(got, want["run"]) {
		t.Errorf("header keys %v, schema table %v", got, want["run"])
	}
}

// TestReadLogHeaderCountIsAHint: a header's event count sizes nothing the
// input cannot back. 2^34 declared events over a one-line body read in a
// bounded heap, and a negative count is harmless.
func TestReadLogHeaderCountIsAHint(t *testing.T) {
	line := `{"kind":"mark","cycle":1,"id":1,"thread":0,"batch":0}` + "\n"
	for _, events := range []string{"17179869184", "-1"} {
		raw := `{"schema":"parbs.trace/v1","kind":"run","policy":"PAR-BS","cores":2,"banks":2,"events":` + events + `,"dropped":0}` + "\n" + line
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		log, err := readLog(strings.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("events=%s: %v", events, err)
		}
		if len(log.Events) != 1 {
			t.Errorf("events=%s: read %d events, want 1", events, len(log.Events))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("events=%s: readLog allocated %d bytes for a %d-byte log", events, n, len(raw))
		}
	}
	if got := EventsHint(1<<34, 100); got != 100/minEventLine+1 {
		t.Errorf("EventsHint(2^34, 100) = %d", got)
	}
	if got := EventsHint(1<<34, -1); got != blindPrealloc {
		t.Errorf("EventsHint(2^34, unknown) = %d, want %d", got, blindPrealloc)
	}
	if got := EventsHint(-5, 100); got != 0 {
		t.Errorf("EventsHint(-5, 100) = %d, want 0", got)
	}
}
