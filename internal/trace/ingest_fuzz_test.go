package trace_test

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// oracleIngest is analysis.Ingest rebuilt on the reflective decoder: the
// same line splitting and limits, the header through trace.ParseHeader,
// and the first undecodable or overlong line ending the stream as an
// ingest tear.
func oracleIngest(raw []byte) (log *trace.Log, ingestTruncated bool, err error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
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
// oracle ingest builds, Truncated and IngestTruncated flags included.
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
		got := store.ToLog()
		if len(got.Events) != len(want.Events) {
			t.Fatalf("%d events, oracle %d", len(got.Events), len(want.Events))
		}
		for i := range got.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("event %d: %+v, oracle %+v", i, got.Events[i], want.Events[i])
			}
		}
		if !reflect.DeepEqual(got.BatchPerThread, want.BatchPerThread) {
			t.Fatalf("batch shapes %v, oracle %v", got.BatchPerThread, want.BatchPerThread)
		}
	})
}
