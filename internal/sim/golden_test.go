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
// build (ticked vs skipping, sequential vs parallel), so a change that moves
// both arms at once passes them. These digests pin the absolute observable
// output of the run entry points instead — the command log, the telemetry
// report JSON, the trace JSONL, the Result and every Progress heartbeat —
// for lock-step and independent-channel runs and the alone baselines. Each
// entry is the sha256 of the per-part sha256 lines. A mismatch means the
// simulator's behaviour changed; the digests are not to be regenerated to
// make a refactor pass.

// goldenRunDigests maps a run configuration to its digest.
var goldenRunDigests = map[string]string{
	"FCFS/independent-x1":             "e05cdcde77dd3d261fe1d814db2099ba3010a3a96820d4b9955050200bc30849",
	"FCFS/independent-x4/par1":        "4e2f4c29320bf2ad754fd65ed37d29f77a554feaef2fdef74415d90fd7bb724e",
	"FCFS/independent-x4/par2":        "4e2f4c29320bf2ad754fd65ed37d29f77a554feaef2fdef74415d90fd7bb724e",
	"FCFS/lockstep/next-event":        "281d061d58d7ade4bcfdbfc9bd61b332b3805b18cf5d40977575e36ab2a66bb2",
	"FCFS/lockstep/ticked":            "7e76bc2615c60ba24e42e62385228b6b179f8c44908173b7d6b229617cbdb84a",
	"FR-FCFS+Cap/independent-x1":      "d605e3365679e67725728be97de40540b60f327ab753888084093dc8e3e9c050",
	"FR-FCFS+Cap/independent-x4/par1": "e7592ff30e668b88b35f0d4e91219f82afb5ab6e6926287b5d7bc4fa6ced9411",
	"FR-FCFS+Cap/independent-x4/par2": "e7592ff30e668b88b35f0d4e91219f82afb5ab6e6926287b5d7bc4fa6ced9411",
	"FR-FCFS+Cap/lockstep/next-event": "79f1bc963e2c3344bfdfb9eb5b6bd42cfdee52a5883580679f96f20f3b2316c1",
	"FR-FCFS+Cap/lockstep/ticked":     "bdce94924554f3ec7ebdbbc1c399f4b406644a4974238dc2060b97c6fe38839d",
	"FR-FCFS/independent-x1":          "b7ca49e3d68fa7f25cf1f69a3dc1eeed81bff96ff360e1ae4683c355934718b4",
	"FR-FCFS/independent-x4/par1":     "4a9ed13e30cc4b25f98040baec7cb6043a9b577cf89b3afb06db81fff0a19a4a",
	"FR-FCFS/independent-x4/par2":     "4a9ed13e30cc4b25f98040baec7cb6043a9b577cf89b3afb06db81fff0a19a4a",
	"FR-FCFS/lockstep/next-event":     "49f7b0a95cb668bbe7537d7428997cef5d9ea9531f98b854ebaf804afd973c54",
	"FR-FCFS/lockstep/ticked":         "7dbb2bbd31caaac2240bc995cf272b7f5b9025872bdc4aa1ef0348849bb851ba",
	"NFQ-ST/independent-x1":           "c8e3ea6ffcddc4c5aeedd0c2077ce5a8bc2d6fa03534f210fb466c08a781d39f",
	"NFQ-ST/independent-x4/par1":      "bb4cb21cbe98096e6fcbfdc7cd542361c4de85298bd681b888305bd0e8dc8ffa",
	"NFQ-ST/independent-x4/par2":      "bb4cb21cbe98096e6fcbfdc7cd542361c4de85298bd681b888305bd0e8dc8ffa",
	"NFQ-ST/lockstep/next-event":      "b31ba91fbc7aaa92077d8307d83ed860286ef7b8dfa1028d58c95a7ec7e99489",
	"NFQ-ST/lockstep/ticked":          "b49ed2be8b2942e3924ac05def2f85ce018806daa835ce76a0b025f72681d548",
	"NFQ/independent-x1":              "aeb8a685453d54905e4e17eae3d697a065793af70bd9c26307cc9363af376097",
	"NFQ/independent-x4/par1":         "c6647db83beab851b6feb0accd4f54b0633ed1cd57b04320e3897c17da157f33",
	"NFQ/independent-x4/par2":         "c6647db83beab851b6feb0accd4f54b0633ed1cd57b04320e3897c17da157f33",
	"NFQ/lockstep/next-event":         "73117049904f4e6fcffd230dae9771844b67153167df170b77759e589d9c1d42",
	"NFQ/lockstep/ticked":             "acaa576d4863e72165ae2f23f7ec49c7cd1a25196b20e5821e0cb7789f19ed70",
	"PAR-BS/independent-x1":           "48175df91845e07027acb82dc4e005681fdd7a451b4c7b70b4e85a8b9e4054fa",
	"PAR-BS/independent-x4/par1":      "860368458c7fa5715a50774ae75873afa1d4b1dc6f2b66d523cfe4617774f271",
	"PAR-BS/independent-x4/par2":      "860368458c7fa5715a50774ae75873afa1d4b1dc6f2b66d523cfe4617774f271",
	"PAR-BS/lockstep/next-event":      "39be5a24809a61610f6db20d6aab3b5cfe56904c8f8411e86305d7e60c22ee3b",
	"PAR-BS/lockstep/ticked":          "f273b4ad3babd24d5323f2cc64c0d115544d7ec4525322257b3527891f0f0635",
	"STFM/independent-x1":             "7b3104d90c1d11c277fd87751d43a6c89067b645eb08e5b43761272c06811793",
	"STFM/independent-x4/par1":        "8c7af5efb6d692a1e31dfae7cf3bbddd9e9251ecea9cf440a9b9fafa43b67dfd",
	"STFM/independent-x4/par2":        "8c7af5efb6d692a1e31dfae7cf3bbddd9e9251ecea9cf440a9b9fafa43b67dfd",
	"STFM/lockstep/next-event":        "bca58a9c8e83012a796b20d13a8f5f45c668a6cf0cd35e62847d2e400753ca28",
	"STFM/lockstep/ticked":            "bca58a9c8e83012a796b20d13a8f5f45c668a6cf0cd35e62847d2e400753ca28",
	"TDM-strict/independent-x1":       "bd029e5623cb98d694c625927cc9b02f1cd8560c93e2de9acfea3dd5bef62c4d",
	"TDM-strict/independent-x4/par1":  "6b3a5c0f89a95101baa50374bd943120d29bada76ff04129ebfce0dfb3af1cbf",
	"TDM-strict/independent-x4/par2":  "6b3a5c0f89a95101baa50374bd943120d29bada76ff04129ebfce0dfb3af1cbf",
	"TDM-strict/lockstep/next-event":  "d952c6f850c999aa569ea9bae28f271935d7ed4ceca2ac93c94ec7870f20778c",
	"TDM-strict/lockstep/ticked":      "c3df3ab5f3130ac1824a47f20142ee2f5f092cb38063a50937ccd97928bb7184",
	"TDM/independent-x1":              "5a9e077ddcf32fa4936474707eed13042be240bdbc12c8aabcf01c1a80963b2c",
	"TDM/independent-x4/par1":         "756806f565c4684a3a0340d985eaa484d77e4d6b66f07bc2900fe642119f5b8e",
	"TDM/independent-x4/par2":         "756806f565c4684a3a0340d985eaa484d77e4d6b66f07bc2900fe642119f5b8e",
	"TDM/lockstep/next-event":         "39be7f4fa4e56be0de4592132efa0fca3a56f25a0edba0c7da7dd7dea2867b06",
	"TDM/lockstep/ticked":             "60ce48a61cedb0de243fc24d382d9ba4fe1b50cfb41209ca986750e595da42b5",
	"alone/lbm/channels1":             "8ae8a78521f72e583bc67b0730e26b24e61508f1aad7c796a383ce0c4dfe7fae",
	"alone/libquantum/channels0":      "c1f6a129bb25b2f2bf43b3cf4b247aef5f5b56cda24850b0def8c4527dcdb2f7",
	"alone/mcf/channels0":             "3c90869e9cafa0fb44abe1d862e408045ca8b4fb5748cf52807ecde8f83befbe",
	"alone/mcf/channels4":             "98abc83b71191372db2aa7c8ee577b67695576af18397e15e32b9d8ca8ed6069",
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
// its digest. channels == 0 selects Run (lock-step, the paper's Table 2
// system); otherwise RunIndependent on that many channels.
func goldenSharedRun(t *testing.T, polName string, cores, channels, parallelism int, ticked bool) string {
	cfg := DefaultConfig(cores)
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 200_000
	cfg.ForceTicked = ticked
	cfg.Parallelism = parallelism
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
	telJSON, err := probe.Report(telemetry.ReportMeta{Policy: res.Policy, Workload: mix.Name}).JSON()
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
	return g.digest(t)
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
		cfg.Parallelism = 2
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
// ticked loop, 8-core runs on 4 independent channels at Parallelism 1 and
// 2 and on 1 independent channel, and the alone baselines of both layouts.
func TestGoldenRunDigests(t *testing.T) {
	cases := []struct {
		name                      string
		cores, channels, parallel int
		ticked                    bool
	}{
		{"lockstep/next-event", 4, 0, 0, false},
		{"lockstep/ticked", 4, 0, 0, true},
		{"independent-x4/par1", 8, 4, 1, false},
		{"independent-x4/par2", 8, 4, 2, false},
		{"independent-x1", 8, 1, 0, false},
	}
	for _, pol := range append(sched.Names(), sched.ExtraNames()...) {
		for _, c := range cases {
			key := pol + "/" + c.name
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, key, goldenSharedRun(t, pol, c.cores, c.channels, c.parallel, c.ticked))
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
