package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The golden equivalence harness: the bank-indexed controller fast path must
// emit the DRAM command stream of the original O(buffer) reference scan, for
// every registered scheduling policy across several workload seeds. The
// reference scan now lives only in the parbsdebug audit (internal/memctrl
// audit_on.go), which checks every decision against it; the release build
// holds the fast path to digests of the reference's output instead.
// Identical command streams imply identical timing, so every table and
// figure of the reproduction is provably unchanged by the scheduling-path
// rewrite.

// streamDigest hashes every issued DRAM command, field by field, plus the
// event count (so a truncated stream cannot collide with its prefix).
type streamDigest struct {
	hash  uint64
	count int64
}

// run simulates mix under the policy named name and digests its command
// stream. probe, when non-nil, attaches telemetry sampling (which must not
// change the stream).
func commandStream(t *testing.T, name string, seed int64, probe *telemetry.Probe) streamDigest {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 300_000
	cfg.Probe = probe
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var count int64
	cfg.CommandLog = func(ev memctrl.CommandEvent) {
		count++
		writeInt(ev.Now)
		writeInt(int64(ev.Cmd))
		writeInt(int64(ev.Bank))
		writeInt(ev.Row)
		writeInt(int64(ev.Thread))
		writeInt(ev.ReqID)
	}
	pol, err := sched.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, workload.CaseStudyI(), pol); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return streamDigest{hash: h.Sum64(), count: count}
}

// referenceStreams pins commandStream's digest for every registered policy
// (Case Study I, seeds 1–3) as the flat O(buffer) reference scan produced
// it. The table was computed on the commit that still compiled the
// reference scan into the controller as a Config switch, by running
// commandStream with that switch on; the bank-indexed path matched every
// entry at that commit. Do not regenerate it to make a change pass.
var referenceStreams = map[string][3]streamDigest{
	"FR-FCFS":     {{0x40b1f12f6cf329b3, 12163}, {0x85ada88271deeb2a, 11789}, {0xe9a8e66405486668, 12525}},
	"FCFS":        {{0xcd4d0d1c98fa9f5d, 13026}, {0x7321597a546472a1, 12100}, {0x29969f6238cdc209, 12328}},
	"NFQ":         {{0x3639626cae0ba637, 17015}, {0x5664559482abcbc7, 17434}, {0xd5d8bde0869889af, 17300}},
	"STFM":        {{0xd76cc89d45b76168, 14165}, {0x7aa8118c965745de, 13833}, {0x799a4cc8870608f4, 14553}},
	"PAR-BS":      {{0x0ecff7a2105f26b1, 17226}, {0x67e817dbf20ea407, 17435}, {0x573a00587fe44717, 17442}},
	"NFQ-ST":      {{0x4bf22927d500e5c2, 16723}, {0x0ce67c5fd951d90f, 17315}, {0x3b0e86a0af084a52, 17134}},
	"FR-FCFS+Cap": {{0x0ea10d461bf78ccc, 12618}, {0x85ada88271deeb2a, 11789}, {0x23a198be1807bddb, 12425}},
	"TDM":         {{0xdf98eb30057a9f70, 16043}, {0x7c33993625f374fd, 16249}, {0x6c2e133994839e80, 16381}},
	"TDM-strict":  {{0x41b5b569c77b1b17, 8338}, {0xd3aa5a85c22cb505, 8078}, {0x12b6f86be8f9a965, 8087}},
}

// TestCommandStreamEquivalence holds the bank-indexed fast path to the
// reference scan's pinned command streams for every paper and extra
// scheduler across three seeds.
func TestCommandStreamEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is long; skipped with -short")
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	if len(policies) != len(referenceStreams) {
		t.Fatalf("%d registered policies, %d pinned reference streams", len(policies), len(referenceStreams))
	}
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref, ok := referenceStreams[name]
			if !ok {
				t.Fatalf("no pinned reference stream for %s", name)
			}
			for i, want := range ref {
				seed := int64(i + 1)
				if got := commandStream(t, name, seed, nil); got != want {
					t.Errorf("seed %d: command stream diverges from the reference: got {hash %#x, %d cmds}, reference {hash %#x, %d cmds}",
						seed, got.hash, got.count, want.hash, want.count)
				}
			}
		})
	}
}

// differentialRun executes one fully-instrumented run — command-stream
// digest (channel stamps included), telemetry report and trace log all
// captured — under the chosen row policy (closedPage) and run loop
// (forceTicked). channels == 0 selects Run (lock-step); otherwise
// RunIndependent on that many channels. The report's loop section is
// stripped before marshaling: it records evaluated/skipped cycle counts and
// so differs between the two loop modes by construction.
func differentialRun(t *testing.T, polName string, mix workload.Mix, seed int64, channels int, closedPage, forceTicked bool) (streamDigest, []byte, []byte) {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 150_000
	cfg.Ctrl.ClosedPage = closedPage
	cfg.ForceTicked = forceTicked
	probe := telemetry.NewProbe(telemetry.Config{EpochDRAMCycles: 2048})
	cfg.Probe = probe
	tr := trace.NewTracer(trace.Config{})
	cfg.Tracer = tr
	h := fnv.New64a()
	var buf [8]byte
	var count int64
	cfg.CommandLog = func(ev memctrl.CommandEvent) {
		count++
		for _, v := range []int64{ev.Now, int64(ev.Channel), int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	newPolicy := func() memctrl.Policy {
		pol, err := sched.ByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	var err error
	if channels == 0 {
		_, err = Run(cfg, mix, newPolicy())
	} else {
		cfg.Geometry.Channels = channels
		_, err = RunIndependent(cfg, mix, newPolicy)
	}
	if err != nil {
		t.Fatalf("%s %s (channels=%d closed-page=%v ticked=%v): %v", polName, mix.Name, channels, closedPage, forceTicked, err)
	}
	rep := probe.Report(telemetry.ReportMeta{Policy: polName, Workload: mix.Name})
	rep.Loop = nil
	telJSON, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := tr.WriteJSONL(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return streamDigest{hash: h.Sum64(), count: count}, telJSON, traceBuf.Bytes()
}

// expectIdenticalRuns asserts the full observable output of a ticked and a
// skipping run match byte for byte, and returns that output's digest (see
// referenceRuns).
func expectIdenticalRuns(t *testing.T, polName string, mix workload.Mix, seed int64, channels int, closedPage bool) string {
	t.Helper()
	tick, tickTel, tickTr := differentialRun(t, polName, mix, seed, channels, closedPage, true)
	skip, skipTel, skipTr := differentialRun(t, polName, mix, seed, channels, closedPage, false)
	if tick.count == 0 {
		t.Fatalf("ticked run issued no commands (vacuous)")
	}
	if tick != skip {
		t.Errorf("command streams diverge: ticked {hash %#x, %d cmds} vs skipping {hash %#x, %d cmds}",
			tick.hash, tick.count, skip.hash, skip.count)
	}
	if !bytes.Equal(tickTel, skipTel) {
		t.Errorf("telemetry reports differ between ticked and skipping runs (%d vs %d bytes)",
			len(tickTel), len(skipTel))
	}
	if !bytes.Equal(tickTr, skipTr) {
		t.Errorf("trace logs differ between ticked and skipping runs (%d vs %d bytes)",
			len(tickTr), len(skipTr))
	}
	h := sha256.New()
	fmt.Fprintf(h, "cmd %#x %d\n", tick.hash, tick.count)
	h.Write(tickTel)
	h.Write(tickTr)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// referenceRuns pins the digest expectIdenticalRuns returns for runs of the
// flat O(buffer) reference scan, keyed by subtest name. Like
// referenceStreams, it was computed on the commit that still compiled the
// reference scan into the controller as a Config switch, with that switch
// on, under both run loops; the bank-indexed path matched every entry there.
// Do not regenerate it to make a change pass.
var referenceRuns = map[string]string{
	"FR-FCFS/rand4c-000":     "9f8defe51af2560015a2fba3b4fd6a6a85de170ac8f41181da71c58927963a08",
	"FR-FCFS/rand4c-001":     "5887e059de0b9f06dc810c2a9d9bca6b7492ac180b313394437220f17d3c7422",
	"FCFS/rand4c-000":        "964ba203da5d9a2904477091a6f3266d5dba8308affc0d9341f5807becc7a5d7",
	"FCFS/rand4c-001":        "a39d86322d14247af69de6af9fa25f57fd5a330fbfbbe37424b42e3d611af011",
	"NFQ/rand4c-000":         "1ffb5fde6efea851d18e592435d85d7d180b60ec8bdb4a90df130b98c6a0c939",
	"NFQ/rand4c-001":         "b7119f5cdb2ed21c25aade40c5fe6e4085b5898f3007f182dda9efab961e4755",
	"STFM/rand4c-000":        "9984d9b3d26c2b1a95f8e8931d15f7ade67da05eb977048b2c36a96249b297eb",
	"STFM/rand4c-001":        "c30b37cde933f9e421142c8d87555b87cd3428a207be04df90edc505c22b729b",
	"PAR-BS/rand4c-000":      "70c411f14ab3db938e3c38152d80a28903170e4c443bde561eadd9a68f361703",
	"PAR-BS/rand4c-001":      "6db8f359ad5bdb23ab979af25a8bd4c3089da0e00d5805e7103521ac308a1d18",
	"NFQ-ST/rand4c-000":      "63091685c4778ed538c2c62039ab73e197f93e920a3a40cff3e915b17c9d261d",
	"NFQ-ST/rand4c-001":      "994f387c5b4981714cb2e0908e9d8daa90ef7426eda198bb40eb0bc7878c0344",
	"FR-FCFS+Cap/rand4c-000": "09fc32f221c2b1034b99bbc27e1982f55613d36d6f70bb48b9eb59fca93e0eae",
	"FR-FCFS+Cap/rand4c-001": "8c76a5b4f1b614db3cd63e1240baec6ac28336ea5dd9dc2ac651f91fd554d261",
	"TDM/rand4c-000":         "b5909e3735584061c5f8530e53cde6a258ed265afd373cd5e617c1e5a06fc6cb",
	"TDM/rand4c-001":         "2265b85e3de816dcabc5d0e6b9cc5d68aa36056c832afa94be2c4b7d18441796",
	"TDM-strict/rand4c-000":  "ded85d9d7da51020c92c6ed78fec4036f9ed882b98eea5d759ccc4afe80d42ac",
	"TDM-strict/rand4c-001":  "2f0a8291c1234c7baaaeebcf3ae42681aba9a69e357a5de2633051bfbfc2d79f",
	"PAR-BS/independent-x4":  "5f656076a7f8deb90cc26acad1a8d05f981eb3f57bc4c7354552677b29c9ec71",
	"STFM/independent-x4":    "e2e9919309c74ecc9c499695635238b09421e97978c91e67590cb34a6c7812b7",
	"PAR-BS/reference-scan":  "a67cfcf98d8c1a7fc1bf8051c7e5c7dd7440e12abc7335f989837e5f54ccada5",
	"FR-FCFS/reference-scan": "4c28ad204e64d49d3c23e81c9f202b127d04ed5527419783e5c94bb5c6f61602",
}

// expectReferenceRun asserts that a ticked and a skipping run both produce
// the reference scan's pinned output for the subtest key.
func expectReferenceRun(t *testing.T, key, polName string, mix workload.Mix, seed int64, channels int) {
	t.Helper()
	want, ok := referenceRuns[key]
	if !ok {
		t.Fatalf("no pinned reference run for %s", key)
	}
	if got := expectIdenticalRuns(t, polName, mix, seed, channels, false); got != want {
		t.Errorf("%s: output diverges from the reference scan's: digest %s, reference %s", key, got, want)
	}
}

// TestTickedSkippedEquivalence is the differential fuzz harness for the
// next-event run loop: randomized small mixes crossed with every registered
// policy, run once with the legacy ticked loop and once with cycle skipping.
// Command stream, telemetry report and trace log must all be byte-identical
// (the loop accounting section aside). The closed-page arms drive the
// auto-precharge choice, which the parbsdebug audit checks at every CAS; the
// reference-scan arms must also reproduce the reference scan's pinned output.
func TestTickedSkippedEquivalence(t *testing.T) {
	mixes := workload.RandomMixes(2, 4, 20260808)
	if testing.Short() {
		mixes = mixes[:1]
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		for mi := range mixes {
			name, mix, seed := name, mixes[mi], int64(11+mi)
			t.Run(fmt.Sprintf("%s/%s", name, mix.Name), func(t *testing.T) {
				t.Parallel()
				expectIdenticalRuns(t, name, mix, seed, 0, false)
			})
		}
		t.Run(name+"/closed-page", func(t *testing.T) {
			t.Parallel()
			expectIdenticalRuns(t, name, workload.CaseStudyI(), 17, 0, true)
		})
	}
	for _, name := range []string{"PAR-BS", "FR-FCFS"} {
		key := name + "/reference-scan"
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			expectReferenceRun(t, key, name, workload.CaseStudyI(), 7, 0)
		})
	}
}

// TestIndependentTickedSkippedEquivalence crosses the multi-shard run loop
// with the next-event clock: on independent channels, a skipping run must
// match a ticked run byte for byte (the per-shard tick elision and the
// global jumps cannot change anything observable). The 3-channel arm
// exercises ChannelRoute's non-power-of-two modulo route.
func TestIndependentTickedSkippedEquivalence(t *testing.T) {
	for _, c := range []struct {
		name     string
		channels int
	}{{"PAR-BS", 4}, {"FR-FCFS", 4}, {"STFM", 4}, {"FR-FCFS", 3}} {
		key := c.name
		if c.channels != 4 {
			key = fmt.Sprintf("%s/%d-channels", c.name, c.channels)
		}
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			expectIdenticalRuns(t, c.name, workload.CaseStudyI(), 13, c.channels, false)
		})
	}
}

// TestCandidateCacheEquivalence is the candidate-cache matrix: for every
// registered policy, runs on the bank-indexed path with its per-bank
// candidate cache must reproduce the flat reference scan's pinned output
// (referenceRuns) byte for byte — command stream, telemetry and trace log —
// under both the next-event and the legacy ticked loop. The cache memoizes
// per-bank class winners keyed on the policy's OrderEpoch, so this matrix is
// an end-to-end check of each policy's EpochedPolicy contract (DESIGN.md
// §16) on mixes beyond Case Study I. The independent-x4 arms run four shard
// controllers, each with its own cache.
func TestCandidateCacheEquivalence(t *testing.T) {
	mixes := workload.RandomMixes(2, 4, 20260808)
	if testing.Short() {
		mixes = mixes[:1]
	}
	for _, name := range append(sched.Names(), sched.ExtraNames()...) {
		for mi := range mixes {
			name, mix, seed := name, mixes[mi], int64(53+mi)
			key := name + "/" + mix.Name
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				expectReferenceRun(t, key, name, mix, seed, 0)
			})
		}
	}
	for _, name := range []string{"PAR-BS", "STFM"} {
		key := name + "/independent-x4"
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			expectReferenceRun(t, key, name, workload.CaseStudyI(), 7, 4)
		})
	}
}

// perturbedFRFCFS is FR-FCFS with the final tie-break inverted
// (youngest-first): a deliberately wrong policy used to prove the
// equivalence harness detects differing schedules.
type perturbedFRFCFS struct{ aloneFRFCFS }

func (perturbedFRFCFS) Name() string { return "FR-FCFS-perturbed" }
func (perturbedFRFCFS) Better(a, b memctrl.Candidate) bool {
	if a.IsRowHit() != b.IsRowHit() {
		return a.IsRowHit()
	}
	return a.Req.ID > b.Req.ID
}

// TestEquivalenceHarnessDetectsPerturbation guards the golden test against
// passing vacuously: the same digest machinery must tell a perturbed policy
// apart from the policy it perturbs.
func TestEquivalenceHarnessDetectsPerturbation(t *testing.T) {
	digest := func(pol memctrl.Policy) streamDigest {
		cfg := DefaultConfig(4)
		cfg.WarmupCPUCycles = 0
		cfg.MeasureCPUCycles = 200_000
		h := fnv.New64a()
		var buf [8]byte
		var count int64
		cfg.CommandLog = func(ev memctrl.CommandEvent) {
			count++
			for _, v := range []int64{ev.Now, int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
		if _, err := Run(cfg, workload.CaseStudyI(), pol); err != nil {
			t.Fatal(err)
		}
		return streamDigest{hash: h.Sum64(), count: count}
	}
	base := digest(aloneFRFCFS{})
	perturbed := digest(perturbedFRFCFS{})
	if base.count == 0 || perturbed.count == 0 {
		t.Fatal("runs issued no commands; harness cannot discriminate")
	}
	if base == perturbed {
		t.Fatalf("perturbed policy produced an identical stream digest (%#x, %d cmds); the golden test would pass vacuously",
			base.hash, base.count)
	}
}
