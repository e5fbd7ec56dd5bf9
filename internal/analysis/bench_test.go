package analysis

import (
	"bytes"
	"testing"

	"repro/internal/dram"
	"repro/internal/trace"
)

// syntheticJSONL renders a plausible n-event trace: request lifecycles
// cycling over 8 banks and 4 threads, with a batch line every 64 events.
// The content does not matter for ingest speed — only the line mix does.
func syntheticJSONL(n int) []byte {
	log := &trace.Log{
		Meta: trace.Meta{
			Policy: "PAR-BS", Workload: "synthetic", Cores: 4, Banks: 8,
			CPUPerDRAM: 10, TotalDRAM: int64(n), MarkingCap: 5, ReadBufEntries: 128,
		},
	}
	for i := 0; len(log.Events) < n; i++ {
		c := int64(i)
		req := int64(i / 4)
		th := int32(i % 4)
		bk := int32(i % 8)
		switch i % 4 {
		case 0:
			log.Events = append(log.Events, trace.Event{
				Kind: trace.KindArrive, Cycle: c, Req: req, Thread: th, Bank: bk, Row: req % 512,
			})
		case 1:
			log.Events = append(log.Events, trace.Event{
				Kind: trace.KindMark, Cycle: c, Req: req, Thread: th, Bank: bk,
			})
		case 2:
			log.Events = append(log.Events, trace.Event{
				Kind: trace.KindCommand, Cycle: c, Req: req, Thread: th, Bank: bk,
				Cmd: uint8(dram.CmdRead), Row: req % 512,
			})
		case 3:
			log.Events = append(log.Events, trace.Event{
				Kind: trace.KindComplete, Cycle: c, Req: req, Thread: th, Bank: bk, Row: 40,
			})
		}
		if i%64 == 63 {
			log.Events = append(log.Events, trace.Event{
				Kind: trace.KindBatch, Cycle: c, Req: int64(i / 64), Row: 16,
			})
			log.BatchPerThread = append(log.BatchPerThread, []int32{4, 4, 4, 4})
		}
	}
	log.Events = log.Events[:n]
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, log); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BenchmarkIngest1M times ingesting a million-event JSONL trace (77 MB).
// On a 2-CPU Intel Xeon VM (Go 1.24) one iteration takes about 0.5 s
// with the hand-written decoder, against 7.0 s and 12.3M allocations with
// the reflective decoder it replaced; the ~15k allocations left are the
// store's columns and its copies of the batch shapes. The events/s metric
// makes regressions visible in bench output.
func BenchmarkIngest1M(b *testing.B) {
	const n = 1_000_000
	raw := syntheticJSONL(n)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Ingest(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if s.Events() != n {
			b.Fatalf("ingested %d events, want %d", s.Events(), n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAnalyze1M times the windowed aggregation pass over an
// already-ingested million-event store.
func BenchmarkAnalyze1M(b *testing.B) {
	const n = 1_000_000
	s, err := Ingest(bytes.NewReader(syntheticJSONL(n)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.Analyze(Options{})
		if len(r.Windows) == 0 {
			b.Fatal("no windows")
		}
	}
}
