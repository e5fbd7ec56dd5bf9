package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Golden wire-byte pins for parbs.trace/v1 JSONL and the Chrome
// trace-event JSON. The digests were computed with the reflective
// encoding/json writers; the hand-written codec must reproduce them
// exactly, so a change here is a wire-format change, never a refactor.

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// renderings returns the JSONL and Chrome renderings of log.
func renderings(t *testing.T, log *trace.Log) (jsonl, chrome []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := trace.WriteJSONL(&j, log); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&c, log); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

func checkDigest(t *testing.T, name string, b []byte, want string) {
	t.Helper()
	if got := digest(b); got != want {
		t.Errorf("%s: sha256 %s (%d bytes), want %s", name, got, len(b), want)
	}
}

// TestGoldenWireMemoryAttack pins the §4.3 memory-attack run under PAR-BS
// (the configuration behind the t0 wait of 431139 in internal/analysis).
func TestGoldenWireMemoryAttack(t *testing.T) {
	cfg := sim.DefaultConfig(4)
	cfg.WarmupCPUCycles = 0
	cfg.MeasureCPUCycles = 400_000
	cfg.Tracer = trace.NewTracer(trace.Config{})
	mix, err := workload.MixOf("attack", "matlab", "omnetpp", "hmmer", "sjeng")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sched.ByName("PAR-BS")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(cfg, mix, pol); err != nil {
		t.Fatal(err)
	}
	jsonl, chrome := renderings(t, cfg.Tracer.Log())
	checkDigest(t, "attack JSONL", jsonl,
		"5d10aa7ff9c164bf64a7ec5f595e1c6677dbd9ed47697dce96a455324b6b033d")
	checkDigest(t, "attack Chrome", chrome,
		"4269893e77ca750e794d25bc6ae246e674f977d7c6f89ad008f292f12490d8a1")
}

// TestGoldenWireIndependentChannels pins a 4-channel Independent run, whose
// event lines carry nonzero channel fields.
func TestGoldenWireIndependentChannels(t *testing.T) {
	cfg := sim.DefaultConfig(4)
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 100_000
	cfg.Geometry.Channels = 4
	cfg.Tracer = trace.NewTracer(trace.Config{})
	factory := func() memctrl.Policy { return sched.NewPARBSDefault() }
	if _, err := sim.RunIndependent(cfg, workload.CaseStudyI(), factory); err != nil {
		t.Fatal(err)
	}
	log := cfg.Tracer.Log()
	var nonzero int
	for _, ev := range log.Events {
		if ev.Channel != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("independent run recorded no nonzero channel")
	}
	jsonl, chrome := renderings(t, log)
	checkDigest(t, "independent JSONL", jsonl,
		"f1978769ce0b522ea44f906478dbb9c8f0344309e14a43f7e4b3eb567cba5bc4")
	checkDigest(t, "independent Chrome", chrome,
		"32c73825240b25a04b8ebbe55692a109f6a2e994653a830b90b97c7a8289a5e8")
}

// TestGoldenWireHandBuilt pins a hand-built log that real runs never
// produce: a batch event without a per-thread shape (per_thread null), an
// empty shape, strings that need JSON and HTML escaping, an unknown
// command ordinal, a controller-refresh command, a completion without an
// arrival, and extreme values.
func TestGoldenWireHandBuilt(t *testing.T) {
	log := &trace.Log{
		Meta: trace.Meta{Policy: "<PAR&BS> \"q\" \\", Workload: "w x \x01\tz\xffé",
			Cores: 3, Banks: 2, Channels: 2, CPUPerDRAM: 4, WarmupDRAM: -5,
			TotalDRAM: math.MaxInt64, MarkingCap: 5, ReadBufEntries: 128},
		Dropped: 7,
		Events: []trace.Event{
			{Kind: trace.KindArrive, Cycle: 0, Req: 1, Thread: 0, Bank: 1, Row: 7},
			{Kind: trace.KindArrive, Cycle: 3, Req: 2, Thread: 2, Bank: 0, Row: 9, Write: true, Channel: 1},
			{Kind: trace.KindBatch, Cycle: 4, Req: 0, Row: 0, Rank: 0},
			{Kind: trace.KindMark, Cycle: 5, Req: 1, Thread: 0, Row: 1},
			{Kind: trace.KindBatch, Cycle: 5, Req: 1, Row: 1, Rank: 2, Channel: 1},
			{Kind: trace.KindMark, Cycle: 6, Req: 99, Thread: 1, Row: 1},
			{Kind: trace.KindCommand, Cycle: 8, Req: 1, Thread: 0, Bank: 1, Row: 7, Rank: 0, Cmd: uint8(dram.CmdActivate)},
			{Kind: trace.KindCommand, Cycle: 9, Req: -1, Thread: -1, Bank: 0, Row: 0, Rank: -1, Cmd: uint8(dram.CmdRefresh)},
			{Kind: trace.KindCommand, Cycle: 10, Req: 2, Thread: 2, Bank: 0, Row: 9, Rank: math.MaxInt32, Cmd: 9, Channel: math.MinInt32},
			{Kind: trace.KindComplete, Cycle: 20, Req: 1, Thread: 0, Row: 20},
			{Kind: trace.KindComplete, Cycle: 21, Req: 2, Thread: 2, Row: 18, Channel: 1},
			{Kind: trace.KindComplete, Cycle: 22, Req: 77, Thread: 1, Row: 4},
			{Kind: trace.KindBatchEnd, Cycle: 30, Req: 1, Row: 25, Channel: 1},
			{Kind: trace.KindBatch, Cycle: math.MaxInt64, Req: math.MinInt64, Row: -1, Rank: math.MinInt32},
			{Kind: trace.KindBatchEnd, Cycle: math.MinInt64, Req: 2, Row: math.MaxInt64},
		},
		// Three batch events, two shapes: the last batch has none.
		BatchPerThread: [][]int32{{}, {1, 0, math.MinInt32}},
	}
	jsonl, chrome := renderings(t, log)
	checkDigest(t, "hand-built JSONL", jsonl,
		"941082d0079a0a273b84c13061be2a1685794235fd409531d9115e882ad11e58")
	checkDigest(t, "hand-built Chrome", chrome,
		"c8854934ff2958f3a23af8fb4c3f40435472d5949382853c76f2fc9d618668a8")
	if !bytes.Contains(jsonl, []byte(`"per_thread":null`)) || !bytes.Contains(jsonl, []byte(`"per_thread":[]`)) {
		t.Errorf("hand-built JSONL lacks the null and empty per-thread shapes:\n%s", jsonl)
	}
}

// TestChromeWaitsNonNegative renders the lock-step Case Study I run under
// PAR-BS (parbs-sim -sched PAR-BS -mix CSI) as Chrome trace-event JSON and
// checks every request span's wait decomposition: no phase is negative and
// the phases sum to the span. The run must contain requests serviced before
// they were marked (swept into a batch after their first command), whose
// pre-service wait is all unmarked — the case that once produced negative
// marked waits.
func TestChromeWaitsNonNegative(t *testing.T) {
	cfg := sim.DefaultConfig(4)
	cfg.WarmupCPUCycles = 50_000
	cfg.MeasureCPUCycles = 300_000
	cfg.Tracer = trace.NewTracer(trace.Config{})
	pol, err := sched.ByName("PAR-BS")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(cfg, workload.CaseStudyI(), pol); err != nil {
		t.Fatal(err)
	}
	log := cfg.Tracer.Log()
	serviced := map[int64]bool{}
	markedLate := 0
	for _, ev := range log.Events {
		switch ev.Kind {
		case trace.KindMark:
			if serviced[ev.Req] {
				markedLate++
			}
		case trace.KindCommand:
			serviced[ev.Req] = true
		}
	}
	if markedLate == 0 {
		t.Fatal("no request was marked after its first command; the test is vacuous")
	}
	_, chrome := renderings(t, log)
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, raw := range doc.TraceEvents {
		// Request spans carry only integer arguments; other events are
		// skipped before decoding into this shape.
		if !bytes.Contains(raw, []byte(`"cat":"request"`)) {
			continue
		}
		var span struct {
			Name string           `json:"name"`
			Dur  int64            `json:"dur"`
			Args map[string]int64 `json:"args"`
		}
		if err := json.Unmarshal(raw, &span); err != nil {
			t.Fatal(err)
		}
		spans++
		unmarked, markedWait, service := span.Args["wait_unmarked"], span.Args["wait_marked"], span.Args["service"]
		if unmarked < 0 || markedWait < 0 || service < 0 || unmarked+markedWait+service != span.Dur {
			t.Fatalf("%s: wait_unmarked %d + wait_marked %d + service %d, span %d: a phase is negative or they do not sum",
				span.Name, unmarked, markedWait, service, span.Dur)
		}
	}
	if spans == 0 {
		t.Fatal("no request spans rendered")
	}
}
