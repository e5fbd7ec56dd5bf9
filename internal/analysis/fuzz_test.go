package analysis

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var (
	realTraceOnce sync.Once
	realTrace     []byte
	realDropLog   *trace.Log
	realTraceErr  error
)

// realDropEvents caps the tracer of realTraceLog's run well short of the
// 2,048 events the run records, so its log has Dropped > 0. The first 300
// events hold two batches.
const realDropEvents = 300

// realRun records a short simulated PAR-BS run of Case Study I with a
// tracer that keeps at most maxEvents events (0: the default cap).
func realRun(maxEvents int) (*trace.Log, error) {
	cfg := sim.DefaultConfig(4)
	cfg.WarmupCPUCycles = 0
	cfg.MeasureCPUCycles = 20_000
	cfg.Tracer = trace.NewTracer(trace.Config{MaxEvents: maxEvents})
	pol, err := sched.ByName("PAR-BS")
	if err != nil {
		return nil, err
	}
	if _, err := sim.Run(cfg, workload.CaseStudyI(), pol); err != nil {
		return nil, err
	}
	return cfg.Tracer.Log(), nil
}

// realTraces runs realRun once for each of realTraceJSONL and
// realTraceLog.
func realTraces(tb testing.TB) {
	tb.Helper()
	realTraceOnce.Do(func() {
		var log *trace.Log
		if log, realTraceErr = realRun(0); realTraceErr != nil {
			return
		}
		var buf bytes.Buffer
		if realTraceErr = trace.WriteJSONL(&buf, log); realTraceErr != nil {
			return
		}
		realTrace = buf.Bytes()
		realDropLog, realTraceErr = realRun(realDropEvents)
	})
	if realTraceErr != nil {
		tb.Fatal(realTraceErr)
	}
}

// realTraceJSONL is the JSONL trace of the real run: a few thousand lines
// of every event kind, batches included.
func realTraceJSONL(tb testing.TB) []byte {
	realTraces(tb)
	return realTrace
}

// realTraceLog is the typed log of the same run under a tracer capped at
// realDropEvents: a prefix of the run, batches included, that counts the
// events it dropped.
func realTraceLog(tb testing.TB) *trace.Log {
	realTraces(tb)
	if realDropLog.Dropped == 0 {
		tb.Fatalf("capped run of %d events dropped none", len(realDropLog.Events))
	}
	return realDropLog
}

// FuzzLiveIngester checks both live sources against their post-hoc
// counterparts.
//
// JSONL: a prefix of a real trace is fed to a LiveIngester in chunks split
// where the fuzzer says. Before Finalize its report must equal the
// post-hoc Ingest → Analyze of the complete lines fed; after, that of the
// whole prefix (a torn last line included). A prefix without a whole
// header has no report either way.
//
// Typed: successive prefixes of the same run's log under a tracer that
// filled and dropped events, one per split up to 4 and no longer than the
// events the JSONL prefix holds, are fed through FeedLog as a recording
// tracer publishes them; a prefix may hold the shape of a batch whose
// event it does not yet hold. After each, the report and the batch shapes
// must equal FromLog(prefix)'s. Once the prefixes reach the complete
// events, the drop count arrives, first as cut says (a tracer that filled
// within the last heartbeat), then in full.
func FuzzLiveIngester(f *testing.F) {
	f.Add(uint32(1<<31), []byte{0})
	f.Add(uint32(1<<31), []byte{200, 3, 17})
	f.Add(uint32(90), []byte{1})
	f.Add(uint32(5000), []byte{255, 255, 0, 64})
	f.Add(uint32(0), []byte{})
	f.Add(uint32(100_000), []byte{60, 255})
	stream := realTraceJSONL(f)
	log := realTraceLog(f)
	opt := Options{WindowCycles: 512, TopK: 3}
	f.Fuzz(func(t *testing.T, cut uint32, splits []byte) {
		prefix := stream[:int(cut%uint32(len(stream)+1))]
		li := NewLiveIngester()
		for off, i := 0, 0; off < len(prefix); i++ {
			n := 1 << 10
			if len(splits) > 0 {
				n = 1 + int(splits[i%len(splits)])*int(splits[i%len(splits)])
			}
			end := min(off+n, len(prefix))
			li.Feed(prefix[off:end])
			off = end
		}
		complete := prefix[:bytes.LastIndexByte(prefix, '\n')+1]
		sameReport(t, "before Finalize", li, complete, opt)
		li.Finalize()
		sameReport(t, "after Finalize", li, prefix, opt)

		li = NewLiveIngester()
		feed := func(p *trace.Log) {
			li.FeedLog(p)
			post := FromLog(p)
			if g, w := reportJSON(t, li.Report(opt)), reportJSON(t, post.Analyze(opt)); !bytes.Equal(g, w) {
				t.Fatalf("log of %d events, %d shapes, %d dropped: live report diverges from FromLog:\nlive: %s\npost: %s",
					len(p.Events), len(p.BatchPerThread), p.Dropped, g, w)
			}
			// Batch shapes show in no report.
			if !slices.EqualFunc(li.store.batchPT, post.batchPT, slices.Equal) {
				t.Fatalf("log of %d events, %d shapes: live batch shapes diverge from FromLog's", len(p.Events), len(p.BatchPerThread))
			}
		}
		limit := min(bytes.Count(complete, []byte("\n"))-1, len(log.Events))
		n, batches := 0, 0
		for _, split := range splits[:min(len(splits), 4)] {
			if limit <= n {
				break
			}
			end := min(n+1+2*int(split), limit)
			for _, ev := range log.Events[n:end] {
				if ev.Kind == trace.KindBatch {
					batches++
				}
			}
			n = end
			shapes := batches
			if split&1 == 1 { // the next batch's shape, not yet its event
				shapes = min(batches+1, len(log.BatchPerThread))
			}
			feed(logPrefix(log, n, shapes))
		}
		if n == len(log.Events) { // the tracer has filled: drops arrive
			partial := *log
			partial.Dropped = int64(cut) % log.Dropped
			feed(&partial)
			feed(log)
		}
	})
}

// sameReport checks li's report against the post-hoc analysis of data.
func sameReport(t *testing.T, when string, li *LiveIngester, data []byte, opt Options) {
	t.Helper()
	got := li.Report(opt)
	post, err := Ingest(bytes.NewReader(data))
	if err != nil {
		if got != nil {
			t.Fatalf("%s: live report over %d bytes that Ingest refuses (%v)", when, len(data), err)
		}
		return
	}
	if got == nil {
		t.Fatalf("%s: no live report over %d bytes that Ingest accepts", when, len(data))
	}
	if g, w := reportJSON(t, got), reportJSON(t, post.Analyze(opt)); !bytes.Equal(g, w) {
		t.Fatalf("%s: live report over %d bytes diverges from post-hoc:\nlive: %s\npost: %s", when, len(data), g, w)
	}
}

// snapshotAllocPerByte bounds what ReadSnapshot may allocate per input
// byte beyond allocBound: the columns it fills hold at most 24 bytes per
// input byte (a batch's 4-byte length becomes a 24-byte slice header),
// and growing them without a length hint at most doubles that.
const snapshotAllocPerByte = 48

// allocDelta returns the bytes fn allocates. Unlike heapDelta it does not
// collect first, which keeps the fuzzer fast.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadSnapshot reads arbitrary bytes as a binary analysis snapshot,
// from a reader that reports its length and from one that does not. It
// must not panic and must allocate in proportion to the input.
func FuzzReadSnapshot(f *testing.F) {
	var valid bytes.Buffer
	if err := FromLog(fixtureLog()).WriteSnapshot(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(hugeSnapshot())
	f.Add(forgeSnapshot(`{"meta":{"cores":2,"banks":2},"events":0,"batches":0}`))
	f.Add(forgeSnapshot(`{"meta":{"cores":2,"banks":2},"events":16,"batches":16}`))
	f.Add(forgeSnapshot(`{"meta":{"cores":2,"banks":1000000000},"events":1,"batches":0}`))
	f.Add([]byte(SchemaV1 + "\n"))
	f.Add([]byte(Schema + "\n\xff\xff\xff\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := uint64(allocBound + snapshotAllocPerByte*len(data))
		for name, r := range map[string]func() io.Reader{
			"sized":   func() io.Reader { return bytes.NewReader(data) },
			"unsized": func() io.Reader { return io.MultiReader(bytes.NewReader(data)) },
		} {
			if n := allocDelta(func() { ReadSnapshot(r()) }); n > bound {
				t.Fatalf("%s: ReadSnapshot allocated %d bytes for a %d-byte input", name, n, len(data))
			}
		}
	})
}
