package trace_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// oracleIngest is analysis.Ingest rebuilt on the reflective decoder: the
// same line splitting and limits, the header through trace.ParseHeader and
// held to the same analyzable run shape, and the first undecodable or
// overlong line ending the stream as an ingest tear.
func oracleIngest(raw []byte) (log *trace.Log, ingestTruncated bool, err error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), trace.MaxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, false, err
		}
		return nil, false, errors.New("empty log")
	}
	meta, dropped, _, err := trace.ParseHeader(sc.Bytes())
	if err != nil {
		return nil, false, err
	}
	channels, banks := max(meta.Channels, 1), max(meta.Banks, 1)
	if meta.Cores > trace.MaxCores || channels > trace.MaxBanks || banks > trace.MaxBanks || channels*banks > trace.MaxBanks {
		return nil, false, errors.New("run shape too large to analyze")
	}
	log = &trace.Log{Meta: meta, Dropped: dropped}
	for sc.Scan() {
		ev, pt, err := trace.OracleParseEventLine(sc.Bytes())
		if err != nil {
			return log, true, nil
		}
		log.Events = append(log.Events, ev)
		if ev.Kind == trace.KindBatch {
			log.BatchPerThread = append(log.BatchPerThread, append([]int32(nil), pt...))
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return log, true, nil
		}
		return nil, false, err
	}
	return log, false, nil
}

// FuzzIngestJSONL: analysis.Ingest never panics and builds the store the
// oracle ingest builds, Truncated and IngestTruncated flags included: the
// flags are checked first, then the store's snapshot must equal that of
// analysis.FromLog over the oracle's log — header fields other than the
// flags (which FromLog cannot set for a torn log) and every column byte.
func FuzzIngestJSONL(f *testing.F) {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "PAR-BS", Workload: "seed", Cores: 2, Banks: 2,
		MarkingCap: 5, ReadBufEntries: 8, TotalDRAM: 100})
	tr.RequestArrived(1, 0, 1, 7, false, 0)
	tr.RequestMarked(1, 0, 0, 3)
	tr.BatchFormedDetail(0, 3, 1, []int{1, 0}, 0)
	tr.CommandIssued(1, 0, 1, 1, 7, 0, 5)
	tr.RequestCompleted(1, 0, 20, 20)
	tr.BatchDrained(0, 20, 17)
	var whole bytes.Buffer
	if err := tr.WriteJSONL(&whole); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	f.Add(whole.Bytes()[:whole.Len()-9])
	f.Add(bytes.ReplaceAll(whole.Bytes(), []byte("\n"), []byte("\r\n")))
	f.Add(append(whole.Bytes(), "\n\n"...))
	f.Add([]byte(`{"schema":"parbs.trace/v1","kind":"run","events":17179869184,"dropped":3}` + "\n" + `{"kind":"mark"}`))
	f.Add([]byte(`{"schema":"parbs.trace/v0","kind":"run"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		store, err := analysis.Ingest(bytes.NewReader(raw))
		want, wantTorn, wantErr := oracleIngest(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Ingest err %v, oracle err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if store.Meta() != want.Meta || store.Dropped() != want.Dropped {
			t.Fatalf("header: %+v/%d, oracle %+v/%d", store.Meta(), store.Dropped(), want.Meta, want.Dropped)
		}
		if store.IngestTruncated() != wantTorn || store.Truncated() != (wantTorn || want.Dropped > 0) {
			t.Fatalf("truncated=%v ingestTruncated=%v, oracle torn=%v dropped=%d",
				store.Truncated(), store.IngestTruncated(), wantTorn, want.Dropped)
		}
		gotHdr, gotBody := snapshotParts(t, store)
		wantHdr, wantBody := snapshotParts(t, analysis.FromLog(want))
		if !reflect.DeepEqual(gotHdr, wantHdr) {
			t.Fatalf("snapshot header %v, oracle %v", gotHdr, wantHdr)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("snapshot columns differ from the oracle's (%d events, oracle %d)", store.Events(), len(want.Events))
		}
	})
}

// snapshotParts splits a store's parbs.analysis snapshot — magic line,
// little-endian header length, JSON header, checksummed columns — into the
// decoded header without its truncation flags and the column bytes.
func snapshotParts(t *testing.T, s *analysis.Store) (map[string]any, []byte) {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	raw := b.Bytes()
	start := bytes.IndexByte(raw, '\n') + 1
	end := start + 4 + int(binary.LittleEndian.Uint32(raw[start:]))
	var hdr map[string]any
	if err := json.Unmarshal(raw[start+4:end], &hdr); err != nil {
		t.Fatal(err)
	}
	delete(hdr, "truncated")
	delete(hdr, "ingest_truncated")
	return hdr, raw[end:]
}
