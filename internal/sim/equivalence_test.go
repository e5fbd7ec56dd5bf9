package sim

import (
	"bytes"
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
// emit a byte-identical DRAM command stream to the original O(buffer)
// reference scan (memctrl.Config.ReferenceScan), for every registered
// scheduling policy across several workload seeds. Identical command streams
// imply identical timing, so every table and figure of the reproduction is
// provably unchanged by the scheduling-path rewrite.

// streamDigest hashes every issued DRAM command, field by field, plus the
// event count (so a truncated stream cannot collide with its prefix).
type streamDigest struct {
	hash  uint64
	count int64
}

// run simulates mix under the policy named name and digests its command
// stream. referenceScan selects the pre-index scheduling path; probe, when
// non-nil, attaches telemetry sampling (which must not change the stream).
func commandStream(t *testing.T, name string, seed int64, referenceScan bool, probe *telemetry.Probe) streamDigest {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 300_000
	cfg.Ctrl.ReferenceScan = referenceScan
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
		t.Fatalf("%s seed %d (reference=%v): %v", name, seed, referenceScan, err)
	}
	return streamDigest{hash: h.Sum64(), count: count}
}

// TestCommandStreamEquivalence pins the bank-indexed fast path to the
// reference scan for every paper and extra scheduler across three seeds.
func TestCommandStreamEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is long; skipped with -short")
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	seeds := []int64{1, 2, 3}
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				ref := commandStream(t, name, seed, true, nil)
				fast := commandStream(t, name, seed, false, nil)
				if ref.count == 0 {
					t.Fatalf("seed %d: reference run issued no commands (vacuous)", seed)
				}
				if ref != fast {
					t.Errorf("seed %d: command streams diverge: reference {hash %#x, %d cmds} vs indexed {hash %#x, %d cmds}",
						seed, ref.hash, ref.count, fast.hash, fast.count)
				}
			}
		})
	}
}

// differentialRun executes one fully-instrumented run — command-stream
// digest (channel stamps included), telemetry report and trace log all
// captured — under the chosen scheduling path (referenceScan) and run loop
// (forceTicked). channels == 0 selects Run (lock-step); otherwise
// RunIndependent on that many channels. The report's loop section is
// stripped before marshaling: it records evaluated/skipped cycle counts and
// so differs between the two loop modes by construction.
func differentialRun(t *testing.T, polName string, mix workload.Mix, seed int64, channels int, referenceScan, forceTicked bool) (streamDigest, []byte, []byte) {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 150_000
	cfg.Ctrl.ReferenceScan = referenceScan
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
		t.Fatalf("%s %s (channels=%d reference=%v ticked=%v): %v", polName, mix.Name, channels, referenceScan, forceTicked, err)
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
// skipping run match byte for byte.
func expectIdenticalRuns(t *testing.T, polName string, mix workload.Mix, seed int64, channels int, referenceScan bool) {
	t.Helper()
	tick, tickTel, tickTr := differentialRun(t, polName, mix, seed, channels, referenceScan, true)
	skip, skipTel, skipTr := differentialRun(t, polName, mix, seed, channels, referenceScan, false)
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
}

// TestTickedSkippedEquivalence is the differential fuzz harness for the
// next-event run loop: randomized small mixes crossed with every registered
// policy, run once with the legacy ticked loop and once with cycle skipping.
// Command stream, telemetry report and trace log must all be byte-identical
// (the loop accounting section aside). The reference-scan scheduling path is
// exercised separately below so both controller paths are pinned.
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
	}
	t.Run("PAR-BS/reference-scan", func(t *testing.T) {
		t.Parallel()
		expectIdenticalRuns(t, "PAR-BS", workload.CaseStudyI(), 7, 0, true)
	})
	t.Run("FR-FCFS/reference-scan", func(t *testing.T) {
		t.Parallel()
		expectIdenticalRuns(t, "FR-FCFS", workload.CaseStudyI(), 7, 0, true)
	})
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

// TestCandidateCacheEquivalence is the candidate-cache differential matrix:
// for every registered policy, a run on the bank-indexed path with its
// per-bank candidate cache must match the reference scan
// (memctrl.Config.ReferenceScan, which shares no selection code with the
// cache) byte for byte — command stream, telemetry and trace log — under
// both the next-event and the legacy ticked loop. The cache memoizes
// per-bank class winners keyed on the policy's OrderEpoch, so this matrix
// is the end-to-end proof of each policy's EpochedPolicy contract
// (DESIGN.md §16). The independent-x4 arms run four shard controllers, each
// with its own cache. CI runs it under -race alongside the ticked-vs-skipped
// matrices.
func TestCandidateCacheEquivalence(t *testing.T) {
	mixes := workload.RandomMixes(2, 4, 20260808)
	if testing.Short() {
		mixes = mixes[:1]
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		for mi := range mixes {
			name, mix, seed := name, mixes[mi], int64(53+mi)
			t.Run(fmt.Sprintf("%s/%s", name, mix.Name), func(t *testing.T) {
				t.Parallel()
				for _, ticked := range []bool{false, true} {
					fast, fastTel, fastTr := differentialRun(t, name, mix, seed, 0, false, ticked)
					ref, refTel, refTr := differentialRun(t, name, mix, seed, 0, true, ticked)
					expectSameRun(t, fmt.Sprintf("ticked=%v", ticked), fast, ref, fastTel, refTel, fastTr, refTr)
				}
			})
		}
	}
	// Independent channels must agree with the reference too: each shard
	// controller keeps its own cache.
	for _, name := range []string{"PAR-BS", "STFM"} {
		t.Run(name+"/independent-x4", func(t *testing.T) {
			t.Parallel()
			fast, fastTel, fastTr := differentialRun(t, name, workload.CaseStudyI(), 7, 4, false, false)
			ref, refTel, refTr := differentialRun(t, name, workload.CaseStudyI(), 7, 4, true, false)
			expectSameRun(t, "independent-x4", fast, ref, fastTel, refTel, fastTr, refTr)
		})
	}
}

// expectSameRun asserts a cached run matches its reference-scan run in
// command stream, telemetry and trace log.
func expectSameRun(t *testing.T, arm string, fast, ref streamDigest, fastTel, refTel, fastTr, refTr []byte) {
	t.Helper()
	if fast.count == 0 {
		t.Fatalf("%s: cached run issued no commands (vacuous)", arm)
	}
	if fast != ref {
		t.Errorf("%s: command streams diverge: cached {hash %#x, %d cmds} vs reference {hash %#x, %d cmds}",
			arm, fast.hash, fast.count, ref.hash, ref.count)
	}
	if !bytes.Equal(fastTel, refTel) {
		t.Errorf("%s: telemetry reports differ from the reference (%d vs %d bytes)", arm, len(fastTel), len(refTel))
	}
	if !bytes.Equal(fastTr, refTr) {
		t.Errorf("%s: trace logs differ from the reference (%d vs %d bytes)", arm, len(fastTr), len(refTr))
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
