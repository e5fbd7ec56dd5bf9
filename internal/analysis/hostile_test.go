package analysis

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// Header counts are hints. A ~100-byte input that declares 2^34 events
// must not make a reader allocate for them: these tests pin a bounded heap
// delta where the declared count once sized the columns.

// hugeHeader declares 2^34 events.
const hugeHeader = `{"schema":"parbs.trace/v1","kind":"run","policy":"PAR-BS","cores":2,"banks":2,"events":17179869184,"dropped":0}` + "\n"

// allocBound is the heap delta the hostile inputs must stay under; the
// buffers they legitimately need (a 64 KiB line buffer, columns for the
// blind preallocation cap of 2^16 events) fit well inside it.
const allocBound = 8 << 20

// heapDelta returns the bytes fn allocates.
func heapDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hugeSnapshot forges a parbs.analysis/v2 snapshot whose header declares
// 2^34 events and 2^33 batches over a 64-byte body.
func hugeSnapshot() []byte {
	return forgeSnapshot(`{"meta":{"policy":"PAR-BS","workload":"w","cores":2,"banks":2,"cpu_per_dram":4,"warmup_dram":0,"total_dram":10,"marking_cap":5,"read_buf":8},"truncated":false,"dropped":0,"events":17179869184,"batches":8589934592}`)
}

// forgeSnapshot frames a snapshot header over a 64-byte body.
func forgeSnapshot(hdr string) []byte {
	var buf bytes.Buffer
	buf.WriteString(Schema + "\n")
	binary.Write(&buf, binary.LittleEndian, uint32(len(hdr)))
	buf.WriteString(hdr)
	buf.Write(make([]byte, 64))
	return buf.Bytes()
}

func TestIngestHugeHeaderCountBounded(t *testing.T) {
	line := `{"kind":"arrive","cycle":1,"id":1,"thread":0,"bank":0,"row":0,"write":false}` + "\n"
	readers := map[string]func() io.Reader{
		"sized":   func() io.Reader { return strings.NewReader(hugeHeader + line) },
		"unsized": func() io.Reader { return io.MultiReader(strings.NewReader(hugeHeader), strings.NewReader(line)) },
	}
	for name, r := range readers {
		var s *Store
		var err error
		if n := heapDelta(func() { s, err = Ingest(r()) }); n > allocBound {
			t.Errorf("%s: Ingest allocated %d bytes for a %d-byte input", name, n, len(hugeHeader+line))
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Events() != 1 || s.IngestTruncated() {
			t.Errorf("%s: events=%d ingestTruncated=%v, want 1/false", name, s.Events(), s.IngestTruncated())
		}
	}
}

func TestLiveIngestHugeHeaderCountBounded(t *testing.T) {
	li := NewLiveIngester()
	if n := heapDelta(func() {
		if err := li.Feed([]byte(hugeHeader)); err != nil {
			t.Fatal(err)
		}
	}); n > allocBound {
		t.Errorf("Feed allocated %d bytes for a %d-byte header", n, len(hugeHeader))
	}
	if li.HeaderEvents() != 1<<34 || li.Events() != 0 {
		t.Errorf("header events=%d events=%d, want 2^34/0", li.HeaderEvents(), li.Events())
	}
}

func TestReadSnapshotHugeHeaderCountBounded(t *testing.T) {
	raw := hugeSnapshot()
	var err error
	if n := heapDelta(func() { _, err = ReadSnapshot(bytes.NewReader(raw)) }); n > allocBound {
		t.Errorf("ReadSnapshot allocated %d bytes for a %d-byte snapshot", n, len(raw))
	}
	if err == nil {
		t.Error("snapshot with a 64-byte body for 2^34 events accepted")
	}
}

// TestReadSnapshotEmptyBatchesBounded: 2048 events, each its own empty
// batch, are about 100 KB of zeros; each batch once cost a 16 KiB staging
// buffer, 34 MB in all.
func TestReadSnapshotEmptyBatchesBounded(t *testing.T) {
	raw := forgeSnapshot(`{"meta":{"cores":2,"banks":2},"events":2048,"batches":2048}`)
	raw = append(raw, make([]byte, (43+4)*2048)...)
	if n, bound := heapDelta(func() { ReadSnapshot(bytes.NewReader(raw)) }), uint64(allocBound+snapshotAllocPerByte*len(raw)); n > bound {
		t.Errorf("ReadSnapshot allocated %d bytes for a %d-byte snapshot, want at most %d", n, len(raw), bound)
	}
}

// TestReadSnapshotSizesColumnsFromInput: bounding preallocation by the
// input must not cost real snapshots their exact column sizes (stores are
// retained by the service, so growth slack would be held with them).
func TestReadSnapshotSizesColumnsFromInput(t *testing.T) {
	src, err := Ingest(bytes.NewReader(syntheticJSONL(3 * chunk))) // past one read chunk
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Events() != 3*chunk {
		t.Fatalf("read %d events, want %d", s.Events(), 3*chunk)
	}
	if cap(s.cycle) != len(s.cycle) || cap(s.thread) != len(s.thread) || cap(s.kind) != len(s.kind) || cap(s.write) != len(s.write) {
		t.Errorf("columns carry slack: cycle %d/%d thread %d/%d kind %d/%d write %d/%d",
			len(s.cycle), cap(s.cycle), len(s.thread), cap(s.thread), len(s.kind), cap(s.kind), len(s.write), cap(s.write))
	}
}

// hugeShapes are run headers whose shape (cores, channels × banks) would
// size every analysis window: a billion cores, a billion banks, and a
// million channels of eight banks.
var hugeShapes = map[string]string{
	"cores":    `"cores":1000000000,"banks":2`,
	"banks":    `"cores":2,"banks":1000000000`,
	"channels": `"cores":2,"banks":8,"channels":1000000`,
}

// TestHugeHeaderShapeRejected: a ~100-byte input declaring such a shape is
// refused by every parser, in a bounded heap, before Analyze can size a
// report from it.
func TestHugeHeaderShapeRejected(t *testing.T) {
	line := `{"kind":"arrive","cycle":1,"id":1,"thread":0,"bank":0,"row":0,"write":false}` + "\n"
	for name, shape := range hugeShapes {
		header := `{"schema":"parbs.trace/v1","kind":"run","policy":"PAR-BS",` + shape + `,"events":1,"dropped":0}` + "\n"
		var err error
		if n := heapDelta(func() { _, err = Ingest(strings.NewReader(header + line)) }); n > allocBound {
			t.Errorf("%s: Ingest allocated %d bytes for a %d-byte input", name, n, len(header+line))
		}
		if err == nil {
			t.Errorf("%s: Ingest accepted the shape", name)
		}
		li := NewLiveIngester()
		if n := heapDelta(func() { err = li.Feed([]byte(header + line)) }); n > allocBound {
			t.Errorf("%s: Feed allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: LiveIngester accepted the shape", name)
		}
		raw := forgeSnapshot(`{"meta":{"policy":"PAR-BS",` + shape + `},"truncated":false,"dropped":0,"events":0,"batches":0}`)
		if n := heapDelta(func() { _, err = ReadSnapshot(bytes.NewReader(raw)) }); n > allocBound {
			t.Errorf("%s: ReadSnapshot allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: ReadSnapshot accepted the shape", name)
		}
	}
}

// TestAnalyzeCellBudget: the widest admitted shape over a long span, asked
// for one-cycle windows, gets fewer, wider windows instead of
// maxWindows × (banks + threads) columns; a paper-sized shape keeps the
// full maxWindows.
func TestAnalyzeCellBudget(t *testing.T) {
	for _, c := range []struct {
		cores, channels, banks int
		wantWindows            int
	}{
		{trace.MaxCores, 4, trace.MaxBanks / 4, maxCells / (trace.MaxCores + trace.MaxBanks)},
		{16, 4, 8, maxWindows},
	} {
		s := FromLog(&trace.Log{Meta: trace.Meta{Cores: c.cores, Channels: c.channels, Banks: c.banks, TotalDRAM: 1 << 30}})
		var r *Report
		if n := heapDelta(func() { r = s.Analyze(Options{WindowCycles: 1}) }); n > 64<<20 {
			t.Errorf("%d cores × %d banks: Analyze allocated %d bytes", c.cores, c.channels*c.banks, n)
		}
		if len(r.Windows) > c.wantWindows || len(r.Windows) < c.wantWindows-1 {
			t.Errorf("%d cores × %d banks: %d windows, want about %d", c.cores, c.channels*c.banks, len(r.Windows), c.wantWindows)
		}
	}
}
