package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dram"
)

// readLog materializes a JSONL event log through the Scanner, refusing a
// damaged stream instead of returning its prefix: the strict reader the
// round-trip tests compare against.
func readLog(r io.Reader) (*Log, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	log := &Log{Meta: sc.Meta(), Dropped: sc.Dropped(), Events: make([]Event, 0, sc.Prealloc())}
	for {
		ev, perThread, err := sc.Next()
		if err == io.EOF {
			return log, nil
		}
		if err != nil {
			return nil, err
		}
		log.Events = append(log.Events, ev)
		if ev.Kind == KindBatch {
			log.BatchPerThread = append(log.BatchPerThread, slices.Clone(perThread))
		}
	}
}

// sampleTracer records a small run exercising every event kind.
func sampleTracer() *Tracer {
	tr := NewTracer(Config{MaxEvents: 64})
	tr.Bind(Meta{Policy: "PAR-BS", Workload: "test", Cores: 2, Banks: 2,
		CPUPerDRAM: 4, WarmupDRAM: 100, TotalDRAM: 1000,
		MarkingCap: 2, ReadBufEntries: 4})
	tr.RequestArrived(1, 0, 1, 7, false, 0)
	tr.RequestArrived(2, 1, 0, 3, true, 5)
	tr.RequestMarked(1, 0, 0, 10)
	tr.BatchFormedDetail(0, 10, 1, []int{1, 0}, 1)
	tr.CommandIssued(1, 0, dram.CmdActivate, 1, 7, 0, 20)
	tr.CommandIssued(-1, -1, dram.CmdRefresh, 0, 0, -1, 25)
	tr.RequestCompleted(1, 0, 50, 50)
	tr.BatchDrained(0, 60, 50)
	return tr
}

func TestTracerRecordsLifecycle(t *testing.T) {
	tr := sampleTracer()
	if tr.Events() != 8 {
		t.Fatalf("Events() = %d, want 8", tr.Events())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", tr.Dropped())
	}
	wantKinds := []Kind{KindArrive, KindArrive, KindMark, KindBatch,
		KindCommand, KindCommand, KindComplete, KindBatchEnd}
	log := tr.Log()
	for i, ev := range log.Events {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d: kind %d, want %d", i, ev.Kind, wantKinds[i])
		}
	}
	if got := log.Events[1]; !got.Write || got.Thread != 1 || got.Cycle != 5 {
		t.Errorf("write arrival mangled: %+v", got)
	}
	if got := log.Events[4]; dram.Command(got.Cmd) != dram.CmdActivate || got.Rank != 0 {
		t.Errorf("command event mangled: %+v", got)
	}
	if got := log.Events[5]; got.Req != -1 || got.Thread != -1 || got.Rank != -1 {
		t.Errorf("controller refresh event not anonymous: %+v", got)
	}
	if len(log.BatchPerThread) != 1 || !reflect.DeepEqual(log.BatchPerThread[0], []int32{1, 0}) {
		t.Errorf("per-thread batch shape = %v, want [[1 0]]", log.BatchPerThread)
	}
}

func TestTracerCapCountsDrops(t *testing.T) {
	tr := NewTracer(Config{MaxEvents: 3})
	tr.Bind(Meta{})
	for i := int64(0); i < 5; i++ {
		tr.RequestArrived(i, 0, 0, 0, false, i)
	}
	tr.BatchFormedDetail(0, 10, 1, []int{1}, 0) // also dropped, no batchPT entry
	if tr.Events() != 3 {
		t.Errorf("Events() = %d, want 3", tr.Events())
	}
	if tr.Dropped() != 3 {
		t.Errorf("Dropped() = %d, want 3", tr.Dropped())
	}
	if got := len(tr.Log().BatchPerThread); got != 0 {
		t.Errorf("dropped batch left %d per-thread entries", got)
	}
}

func TestBindResetsState(t *testing.T) {
	tr := sampleTracer()
	tr.Bind(Meta{Policy: "FR-FCFS"})
	if tr.Events() != 0 || tr.Dropped() != 0 || len(tr.Log().BatchPerThread) != 0 {
		t.Errorf("Bind did not reset: events=%d dropped=%d", tr.Events(), tr.Dropped())
	}
	if tr.Meta().Policy != "FR-FCFS" {
		t.Errorf("Meta not restamped: %+v", tr.Meta())
	}
}

// TestJSONLRoundTrip pins the parbs.trace/v1 wire format: write → read
// recovers the log exactly, and a second write is byte-identical.
func TestJSONLRoundTrip(t *testing.T) {
	log := sampleTracer().Log()
	var first bytes.Buffer
	if err := WriteJSONL(&first, log); err != nil {
		t.Fatal(err)
	}
	back, err := readLog(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Meta, back.Meta) {
		t.Errorf("meta round-trip:\n got %+v\nwant %+v", back.Meta, log.Meta)
	}
	if !reflect.DeepEqual(log.Events, back.Events) {
		t.Errorf("events round-trip mismatch (%d vs %d events)", len(back.Events), len(log.Events))
	}
	if !reflect.DeepEqual(log.BatchPerThread, back.BatchPerThread) {
		t.Errorf("per-thread round-trip: got %v, want %v", back.BatchPerThread, log.BatchPerThread)
	}
	var second bytes.Buffer
	if err := WriteJSONL(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("write→read→write is not byte-identical; the schema pin is broken")
	}
}

func TestReadLogRejectsWrongSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleTracer().Log()); err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(buf.String(), Schema, "parbs.trace/v0", 1)
	if _, err := readLog(strings.NewReader(mangled)); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema accepted (err = %v)", err)
	}
	if _, err := readLog(strings.NewReader("")); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := readLog(strings.NewReader(buf.String() + "{\"kind\":\"bogus\"}\n")); err == nil {
		t.Error("unknown event kind accepted")
	}
}

// TestChromeOutputIsValidJSON: the Perfetto artifact must always be one
// well-formed JSON document.
func TestChromeOutputIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleTracer().Log()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]any    `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
	if doc.OtherData["schema"] != Schema {
		t.Errorf("otherData.schema = %v, want %s", doc.OtherData["schema"], Schema)
	}
}

var errWriteFailed = errors.New("write failed")

// failAfter accepts n bytes, then fails every write and counts the bytes
// offered to it after the failure.
type failAfter struct {
	n      int
	failed bool
	late   int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.late += len(p)
		return 0, errWriteFailed
	}
	if len(p) > f.n {
		f.failed = true
		return f.n, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteChromeStopsAtWriteError: a Chrome render into a writer that
// fails (a client hanging up mid-response) returns the error, writes
// nothing more, and never buffers past flushAt plus one event.
func TestWriteChromeStopsAtWriteError(t *testing.T) {
	log := &Log{Meta: Meta{Policy: "PAR-BS", Cores: 2}}
	for i := int64(0); i < 20_000; i++ {
		log.Events = append(log.Events, Event{Kind: KindCommand, Cycle: i, Req: i, Row: i,
			Thread: int32(i % 2), Bank: int32(i % 8)})
	}
	var full bytes.Buffer
	if err := WriteChrome(&full, log); err != nil {
		t.Fatal(err)
	}
	const capacity = flushAt + 1024
	for _, n := range []int{0, 1, flushAt, 3*flushAt + 17} {
		if full.Len() < n+2*capacity {
			t.Fatalf("log renders %d bytes, too few to fail after %d", full.Len(), n)
		}
		w := &failAfter{n: n}
		c := &chromeWriter{w: w, buf: make([]byte, 0, capacity)}
		if err := c.render(log); !errors.Is(err, errWriteFailed) {
			t.Errorf("fail after %d bytes: error %v, want %v", n, err, errWriteFailed)
		}
		if w.late != 0 {
			t.Errorf("fail after %d bytes: %d bytes written after the failure", n, w.late)
		}
		if cap(c.buf) != capacity {
			t.Errorf("fail after %d bytes: buffer grew to %d bytes, past flushAt and one event", n, cap(c.buf))
		}
	}
}
