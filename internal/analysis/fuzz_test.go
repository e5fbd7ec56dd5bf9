package analysis

import (
	"bytes"
	"io"
	"runtime"
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
	realTraceErr  error
)

// realTraceJSONL is the JSONL trace of a short simulated PAR-BS run of
// Case Study I: a few thousand lines of every event kind, batches
// included.
func realTraceJSONL(tb testing.TB) []byte {
	tb.Helper()
	realTraceOnce.Do(func() {
		cfg := sim.DefaultConfig(4)
		cfg.WarmupCPUCycles = 0
		cfg.MeasureCPUCycles = 20_000
		cfg.Tracer = trace.NewTracer(trace.Config{})
		pol, err := sched.ByName("PAR-BS")
		if err != nil {
			realTraceErr = err
			return
		}
		if _, realTraceErr = sim.Run(cfg, workload.CaseStudyI(), pol); realTraceErr != nil {
			return
		}
		var buf bytes.Buffer
		realTraceErr = trace.WriteJSONL(&buf, cfg.Tracer.Log())
		realTrace = buf.Bytes()
	})
	if realTraceErr != nil {
		tb.Fatal(realTraceErr)
	}
	return realTrace
}

// FuzzLiveIngester feeds a prefix of a real trace to a LiveIngester in
// chunks split where the fuzzer says. Before Finalize its report must
// equal the post-hoc Ingest → Analyze of the complete lines fed; after,
// that of the whole prefix (a torn last line included). A prefix without
// a whole header has no report either way.
func FuzzLiveIngester(f *testing.F) {
	f.Add(uint32(1<<31), []byte{0})
	f.Add(uint32(1<<31), []byte{200, 3, 17})
	f.Add(uint32(90), []byte{1})
	f.Add(uint32(5000), []byte{255, 255, 0, 64})
	f.Add(uint32(0), []byte{})
	stream := realTraceJSONL(f)
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
