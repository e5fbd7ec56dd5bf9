package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strings"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Golden run digests: the equivalence suites compare two arms of the same
// build (ticked vs skipping), so a change that moves both arms at once
// passes them. These digests pin the absolute observable
// output of the run entry points instead — the command log, the telemetry
// report JSON, the trace JSONL, the Result and every Progress heartbeat —
// for lock-step and independent-channel runs and the alone baselines. Each
// entry is the sha256 of the per-part sha256 lines. A mismatch means the
// simulator's behaviour changed; the digests are not to be regenerated to
// make a refactor pass.
//
// The loop statistics of a shared run (Result.EvaluatedCycles and
// SkippedCycles, and the telemetry report's "loop" block, which must agree
// with them) are left out of the digest and pinned apart, as the evaluated
// cycle count in goldenEvaluatedCycles: they describe how the run loop got
// to the output, not the output, so a faster clock may lower them while
// every digest stays put.

// goldenRunDigests maps a run configuration to its digest.
var goldenRunDigests = map[string]string{
	"FCFS/independent-x1":             "5195a83419fee1e44afed4cf4cfc50ec0eae1da0c5e24a0b4db110ef6c71d2e4",
	"FCFS/independent-x4":             "988cf7a7197bafd31d232ce2e233e8a641aba365ec15ca5180b2443903fa4166",
	"FCFS/lockstep/next-event":        "ec0bf5503d9b9ec6b563735a94e59be454afbf32a19ec541535058496c1a40ec",
	"FCFS/lockstep/ticked":            "ec0bf5503d9b9ec6b563735a94e59be454afbf32a19ec541535058496c1a40ec",
	"FR-FCFS+Cap/independent-x1":      "9a4d025f442f966ebed662fa245cab1a58df10bd7a63c70b4c0e84775619dd74",
	"FR-FCFS+Cap/independent-x4":      "0f75816c989de9f036bcb01103fddb29dec596b231145034aa6c6a47e75e3712",
	"FR-FCFS+Cap/lockstep/next-event": "59058f2b7791d12556998f3169c6c0a27fa3faa279581ae3461818393647e485",
	"FR-FCFS+Cap/lockstep/ticked":     "59058f2b7791d12556998f3169c6c0a27fa3faa279581ae3461818393647e485",
	"FR-FCFS/independent-x1":          "949b09a1821d81eda06f00a858d91d9aff1ea6cbfbf3b3dc4afdee95a5e80ee6",
	"FR-FCFS/independent-x4":          "20ae675dae58556eee7f8dcc4c7cf0da9158c9a76d18022cb2e69ad40ef25202",
	"FR-FCFS/lockstep/next-event":     "b782c6b4b3e163135e31ff9ab66bd747df3fb0358f6eaa0122528b433bbfcd16",
	"FR-FCFS/lockstep/ticked":         "b782c6b4b3e163135e31ff9ab66bd747df3fb0358f6eaa0122528b433bbfcd16",
	"NFQ-ST/independent-x1":           "16637d5817e338c6603b9385fddb871cfdb47253a477e1bbeaff0973a35bb381",
	"NFQ-ST/independent-x4":           "3438b09620caca6498637987db0b324256f00e73d08fd0a5e75171719178ac7f",
	"NFQ-ST/lockstep/next-event":      "4f76538a9329d11c5d214b20c0c385277480766fa52604f3b2261761f231da88",
	"NFQ-ST/lockstep/ticked":          "4f76538a9329d11c5d214b20c0c385277480766fa52604f3b2261761f231da88",
	"NFQ/independent-x1":              "8ff4b3a9afb4574778a32cbb88c36ee0ba57c4514740f0d329576a55c6d975a0",
	"NFQ/independent-x4":              "35723b1fb8e4fbdc03c23316dd15320695ae7206c2c6aacbf892a1826816aafa",
	"NFQ/lockstep/next-event":         "91878a4525a8ccfc7f3d07951d573188451b6e6ea0f60093197433a07896acc6",
	"NFQ/lockstep/ticked":             "91878a4525a8ccfc7f3d07951d573188451b6e6ea0f60093197433a07896acc6",
	"PAR-BS/independent-x1":           "496616d3112d9b061d7810fd582c88764482dd665d4f3b0a6a367ff4ba219647",
	"PAR-BS/independent-x4":           "658c6635de4225c84db98ebd5240340930178085c3239f135fb382bc905c39d3",
	"PAR-BS/lockstep/next-event":      "213a973b7646f5158a53a1ba0f83916fe7871e80c7d6cd34d037ca7ab7570cec",
	"PAR-BS/lockstep/ticked":          "213a973b7646f5158a53a1ba0f83916fe7871e80c7d6cd34d037ca7ab7570cec",
	"STFM/independent-x1":             "b7a5e0c8146361fba9aa226f8c69bfb2e2bce10f66b9cca2609b3c645a8f5155",
	"STFM/independent-x4":             "4f9f56217b110539b4a7334b1899293533b94f6ab68d8c27fa3dd53783afa411",
	"STFM/lockstep/next-event":        "274397234d0944c3a593e398ad2048f77bb6d41fed3e8f4461ec4eacd66d88ed",
	"STFM/lockstep/ticked":            "274397234d0944c3a593e398ad2048f77bb6d41fed3e8f4461ec4eacd66d88ed",
	"TDM-strict/independent-x1":       "dff634c5261d79e6e62624dc0802389eb988d84322efc16ae4e9d5d0648c8760",
	"TDM-strict/independent-x4":       "edb3131d97fa5abb379347734905bf201a0b8ba1168d8f2225714965e3f43397",
	"TDM-strict/lockstep/next-event":  "97c74835a2846bd0eae71f4b4f5bbbf2c470b5441ea2264336d38e5a82db3e1a",
	"TDM-strict/lockstep/ticked":      "97c74835a2846bd0eae71f4b4f5bbbf2c470b5441ea2264336d38e5a82db3e1a",
	"TDM/independent-x1":              "2282e1d504dd0c3b81425ce4b900ca57d14c98293b005496a8868817593d7ac4",
	"TDM/independent-x4":              "7252e21ab3d3efa77d7c72a9e83c50fc51c796b810201e970df8abd087522f6c",
	"TDM/lockstep/next-event":         "05bf9aec1c748c4f39c92c9bf08988f1344216ef4392f5417d76a907e04cd6a2",
	"TDM/lockstep/ticked":             "05bf9aec1c748c4f39c92c9bf08988f1344216ef4392f5417d76a907e04cd6a2",
	"alone/lbm/channels1":             "8ae8a78521f72e583bc67b0730e26b24e61508f1aad7c796a383ce0c4dfe7fae",
	"alone/libquantum/channels0":      "c1f6a129bb25b2f2bf43b3cf4b247aef5f5b56cda24850b0def8c4527dcdb2f7",
	"alone/mcf/channels0":             "3c90869e9cafa0fb44abe1d862e408045ca8b4fb5748cf52807ecde8f83befbe",
	"alone/mcf/channels4":             "98abc83b71191372db2aa7c8ee577b67695576af18397e15e32b9d8ca8ed6069",
}

// goldenEvaluatedCycles maps a shared-run configuration to the DRAM cycles
// its run loop evaluated (the rest of its 21_000-cycle span was skipped).
// The two TDM-strict next-event arms evaluate more cycles than a separate
// device-bound pass would allow: when an eligibility-filtered bank bounds the
// scan at the current cycle, NextEventAt's device term is now+1 rather than a
// second walk over the buffered requests.
var goldenEvaluatedCycles = map[string]int64{
	"FCFS/independent-x1":             17901,
	"FCFS/independent-x4":             20637,
	"FCFS/lockstep/next-event":        16080,
	"FCFS/lockstep/ticked":            21000,
	"FR-FCFS+Cap/independent-x1":      18649,
	"FR-FCFS+Cap/independent-x4":      20629,
	"FR-FCFS+Cap/lockstep/next-event": 15676,
	"FR-FCFS+Cap/lockstep/ticked":     21000,
	"FR-FCFS/independent-x1":          18535,
	"FR-FCFS/independent-x4":          20676,
	"FR-FCFS/lockstep/next-event":     15156,
	"FR-FCFS/lockstep/ticked":         21000,
	"NFQ-ST/independent-x1":           19531,
	"NFQ-ST/independent-x4":           20795,
	"NFQ-ST/lockstep/next-event":      18559,
	"NFQ-ST/lockstep/ticked":          21000,
	"NFQ/independent-x1":              19557,
	"NFQ/independent-x4":              20795,
	"NFQ/lockstep/next-event":         18577,
	"NFQ/lockstep/ticked":             21000,
	"PAR-BS/independent-x1":           19124,
	"PAR-BS/independent-x4":           20799,
	"PAR-BS/lockstep/next-event":      18572,
	"PAR-BS/lockstep/ticked":          21000,
	"STFM/independent-x1":             18786,
	"STFM/independent-x4":             20633,
	"STFM/lockstep/next-event":        17298,
	"STFM/lockstep/ticked":            21000,
	"TDM-strict/independent-x1":       20987,
	"TDM-strict/independent-x4":       21000,
	"TDM-strict/lockstep/next-event":  20909,
	"TDM-strict/lockstep/ticked":      21000,
	"TDM/independent-x1":              18904,
	"TDM/independent-x4":              20725,
	"TDM/lockstep/next-event":         18097,
	"TDM/lockstep/ticked":             21000,
}

// goldenHasher collects one run's parts, each hashed on its own.
type goldenHasher struct {
	cmd, progress hash.Hash
	commands      int
	parts         []string
}

func newGoldenHasher() *goldenHasher {
	return &goldenHasher{cmd: sha256.New(), progress: sha256.New()}
}

func (g *goldenHasher) commandLog(ev memctrl.CommandEvent) {
	g.commands++
	var buf [8]byte
	for _, v := range []int64{ev.Now, int64(ev.Channel), int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		g.cmd.Write(buf[:])
	}
}

func (g *goldenHasher) progressBeat(t *testing.T) func(Progress) {
	return func(p Progress) {
		b, err := json.Marshal(p)
		if err != nil {
			t.Error(err)
		}
		g.progress.Write(append(b, '\n'))
	}
}

func (g *goldenHasher) add(name string, b []byte) {
	sum := sha256.Sum256(b)
	g.parts = append(g.parts, name+" "+hex.EncodeToString(sum[:]))
}

// outcomesBytes renders thread outcomes as JSON plus the unexported BLP
// accumulators JSON cannot see.
func outcomesBytes(t *testing.T, res any, outs []metrics.ThreadOutcome) []byte {
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		sum, cycles := o.Mem.BLPAccum()
		b = fmt.Appendf(b, "\nblp %d %d", sum, cycles)
	}
	return b
}

// digest finishes the run's digest and logs the parts for diagnosis.
func (g *goldenHasher) digest(t *testing.T) string {
	g.add("cmd", g.cmd.Sum(nil))
	g.add("progress", g.progress.Sum(nil))
	all := sha256.New()
	for _, p := range g.parts {
		fmt.Fprintln(all, p)
	}
	t.Logf("parts:\n%s", strings.Join(g.parts, "\n"))
	return hex.EncodeToString(all.Sum(nil))
}

func checkGolden(t *testing.T, key, got string) {
	t.Helper()
	want, ok := goldenRunDigests[key]
	switch {
	case !ok:
		t.Errorf("no golden digest for %q; got %q", key, got)
	case got != want:
		t.Errorf("%s: digest %s, want %s", key, got, want)
	}
}

// goldenSharedRun executes one fully instrumented shared run and returns
// its digest and evaluated cycle count. channels == 0 selects Run (lock-step, the paper's Table 2
// system); otherwise RunIndependent on that many channels.
func goldenSharedRun(t *testing.T, polName string, cores, channels int, ticked bool) (string, int64) {
	cfg := DefaultConfig(cores)
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 200_000
	cfg.ForceTicked = ticked
	mix := workload.CaseStudyI()
	if cores == 8 {
		mix = workload.Figure9Workload()
	}
	g := newGoldenHasher()
	cfg.CommandLog = g.commandLog
	cfg.Progress = g.progressBeat(t)
	probe := telemetry.NewProbe(telemetry.Config{EpochDRAMCycles: 2048})
	cfg.Probe = probe
	tr := trace.NewTracer(trace.Config{})
	cfg.Tracer = tr
	newPolicy := func() memctrl.Policy {
		pol, err := sched.ByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	var res Result
	var err error
	if channels == 0 {
		res, err = Run(cfg, mix, newPolicy())
	} else {
		cfg.Geometry.Channels = channels
		res, err = RunIndependent(cfg, mix, newPolicy)
	}
	if err != nil {
		t.Fatal(err)
	}
	if g.commands == 0 {
		t.Fatal("no commands issued (vacuous)")
	}
	report := probe.Report(telemetry.ReportMeta{Policy: res.Policy, Workload: mix.Name})
	evaluated := res.EvaluatedCycles
	if l := report.Loop; l == nil || l.EvaluatedCycles != evaluated || l.SkippedCycles != res.SkippedCycles ||
		l.TotalCycles != evaluated+res.SkippedCycles {
		t.Fatalf("telemetry loop block %+v disagrees with the result's %d evaluated, %d skipped cycles",
			report.Loop, evaluated, res.SkippedCycles)
	}
	report.Loop = nil
	res.EvaluatedCycles, res.SkippedCycles = 0, 0
	telJSON, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	g.add("telemetry", telJSON)
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	g.add("trace", jsonl.Bytes())
	g.add("result", outcomesBytes(t, res, res.Threads))
	return g.digest(t), evaluated
}

// goldenAloneRun digests an alone baseline: its outcome and heartbeats.
func goldenAloneRun(t *testing.T, bench string, channels int) string {
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 200_000
	g := newGoldenHasher()
	cfg.Progress = g.progressBeat(t)
	p := workload.MustByName(bench)
	var out metrics.ThreadOutcome
	var err error
	if channels == 0 {
		out, err = RunAlone(cfg, p)
	} else {
		cfg.Geometry.Channels = channels
		out, err = RunAloneIndependent(cfg, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	g.add("result", outcomesBytes(t, out, []metrics.ThreadOutcome{out}))
	return g.digest(t)
}

// TestGoldenRunDigests pins the absolute output of every run entry point:
// lock-step Case Study I under every policy with the next-event and the
// ticked loop, 8-core runs on 4 and on 1 independent channel, and the
// alone baselines of both layouts.
func TestGoldenRunDigests(t *testing.T) {
	cases := []struct {
		name            string
		cores, channels int
		ticked          bool
	}{
		{"lockstep/next-event", 4, 0, false},
		{"lockstep/ticked", 4, 0, true},
		{"independent-x4", 8, 4, false},
		{"independent-x1", 8, 1, false},
	}
	for _, pol := range append(sched.Names(), sched.ExtraNames()...) {
		for _, c := range cases {
			key := pol + "/" + c.name
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				digest, evaluated := goldenSharedRun(t, pol, c.cores, c.channels, c.ticked)
				checkGolden(t, key, digest)
				if want, ok := goldenEvaluatedCycles[key]; !ok || evaluated != want {
					t.Errorf("%s: %d evaluated cycles, want %d", key, evaluated, want)
				}
			})
		}
	}
	for _, c := range []struct {
		bench    string
		channels int
	}{{"mcf", 0}, {"libquantum", 0}, {"mcf", 4}, {"lbm", 1}} {
		key := fmt.Sprintf("alone/%s/channels%d", c.bench, c.channels)
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, key, goldenAloneRun(t, c.bench, c.channels))
		})
	}
}
