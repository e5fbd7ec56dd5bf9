package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	parbs "repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

// bench is one workload after set-up: a closed loop calls op with
// increasing indices, one at a time.
type bench interface {
	// op runs op i, recording spans into rec when it is not nil.
	op(i int, rec *recorder) (opResult, error)
	// listLen is the length of the cycled op list, or 0 when ops never
	// repeat.
	listLen() int
	close()
}

// opResult is what one op produced.
type opResult struct {
	digest string
	// cycles is the simulated DRAM cycles of the op's shared runs, warmup
	// included.
	cycles int64
}

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name  string
	setup func(seed int64, rec *recorder) (bench, error)
	// ops sizes a timed run of about --seconds on the reference host by op
	// count, not by wall time, so that every run times the same ops.
	ops func(seconds int) int
}

var workloads = []workloadDef{
	{name: "csi-sweep", setup: setupCSISweep, ops: func(seconds int) int {
		return wholePasses(seconds, csiOpsPerSecond, len(csiSweepMixes()))
	}},
	{name: "sharded-16c", setup: setupSharded, ops: func(seconds int) int {
		return wholePasses(seconds, shardedOpsPerSecond, shardedMixCount)
	}},
	{name: "serve-traced", setup: setupServe, ops: serveOps},
}

// Op rates on the reference host (see calibrate.go), for sizing runs.
const (
	csiOpsPerSecond     = 1.8
	shardedOpsPerSecond = 3.3
)

// wholePasses is the op count of a run of a workload that cycles through
// an op list of n entries: the whole number of passes, at least one,
// nearest to seconds of ops at perSecond. The ops' costs differ by mix, so
// a run sized by wall time would take its op median over whichever mixes
// got an extra partial pass (csi-sweep runs of 30 s timed 44 to 60 ops of
// its 17-entry list).
func wholePasses(seconds int, perSecond float64, n int) int {
	return n * max(1, int(float64(seconds)*perSecond/float64(n)+0.5))
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// runCycles is the DRAM-cycle span of one shared run on sys, warmup
// included: the simulated work a run does whatever its mix.
func runCycles(sys parbs.System) int64 {
	cfg := sim.DefaultConfig(sys.Cores)
	warm, meas := cfg.WarmupCPUCycles, cfg.MeasureCPUCycles
	if sys.WarmupCycles > 0 {
		warm = sys.WarmupCycles
	}
	if sys.MeasureCycles > 0 {
		meas = sys.MeasureCycles
	}
	return (warm + meas) / cfg.CPUCyclesPerDRAM
}

// comboStride keeps every comboStride-th four-of-eight category
// combination (14 of 70), so the 4-core op lists span the paper's
// memory-intensity categories evenly.
const comboStride = 5

// stratifiedMixes returns, from RandomWorkloads(70, 4, mixSeed) (one mix
// per category combination), the mixes of the kept combinations in a fixed
// combination order.
func stratifiedMixes() []parbs.Workload {
	byCombo := map[string]parbs.Workload{}
	for _, w := range parbs.RandomWorkloads(70, 4, mixSeed) {
		byCombo[categoryKey(w)] = w
	}
	var out []parbs.Workload
	for i, combo := range combinations(8, 4) {
		if i%comboStride == 0 {
			out = append(out, byCombo[fmt.Sprint(combo)])
		}
	}
	return out
}

func categoryKey(w parbs.Workload) string {
	var cats []int
	for _, b := range w.Benchmarks() {
		cats = append(cats, workload.MustByName(b).Category)
	}
	sort.Ints(cats)
	return fmt.Sprint(cats)
}

// combinations lists the k-subsets of {0..n-1} in lexicographic order.
func combinations(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// warmAloneCache fills cache with the alone baseline of every Table 3
// benchmark on sys by running mixes that together cover all of them, so
// no op pays for a baseline whatever mix the seed draws.
func warmAloneCache(sys parbs.System, cache *parbs.AloneCache, rec *recorder, opts ...parbs.RunOption) error {
	names := parbs.BenchmarkNames()
	for start := 0; start < len(names); start += sys.Cores {
		group := make([]string, sys.Cores)
		for j := range group {
			group[j] = names[(start+j)%len(names)]
		}
		w, err := parbs.WorkloadFromNames(group...)
		if err != nil {
			return err
		}
		s := rec.begin("sim.alone_warm")
		_, err = parbs.RunContext(context.Background(), sys, w, parbs.NewFRFCFS(),
			append(opts, parbs.WithAloneCache(cache))...)
		rec.end(s)
		if err != nil {
			return fmt.Errorf("warm alone baselines: %w", err)
		}
	}
	if cache.Len() != len(names) {
		return fmt.Errorf("warm alone baselines: %d cached, want %d", cache.Len(), len(names))
	}
	return nil
}

// csiSweep runs one 4-core mix under each of the five paper schedulers per
// op, at the paper's Table 2 run length.
type csiSweep struct {
	sys   parbs.System
	cache *parbs.AloneCache
	mixes []parbs.Workload
	// caseStudyI holds the reports of the last Case Study I op.
	caseStudyI []parbs.Report
}

// mixSeed draws the fixed mix lists. The workload seed instead seeds the
// simulated address streams (System.Seed): mixes drawn per seed would make
// op costs differ across seeds by which benchmark each category supplied,
// while new streams of the same mixes cost the same to simulate.
const mixSeed = 1

func csiSweepMixes() []parbs.Workload {
	return append([]parbs.Workload{parbs.CaseStudyI(), parbs.CaseStudyII(), parbs.CaseStudyIII()}, stratifiedMixes()...)
}

// seededSystem is sys with its address streams drawn from seed.
func seededSystem(sys parbs.System, seed int64) parbs.System {
	sys.Seed = seed
	return sys
}

func setupCSISweep(seed int64, rec *recorder) (bench, error) {
	b := &csiSweep{sys: seededSystem(parbs.DefaultSystem(4), seed), cache: parbs.NewAloneCache(), mixes: csiSweepMixes()}
	if err := warmAloneCache(b.sys, b.cache, rec); err != nil {
		return nil, err
	}
	if _, err := b.op(0, rec); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

func (b *csiSweep) listLen() int { return len(b.mixes) }
func (b *csiSweep) close()       {}

func (b *csiSweep) op(i int, rec *recorder) (opResult, error) {
	w := b.mixes[i%len(b.mixes)]
	var d digester
	d.str(w.Name())
	var reps []parbs.Report
	for _, name := range parbs.SchedulerNames() {
		s, err := parbs.SchedulerByName(name)
		if err != nil {
			return opResult{}, err
		}
		sp := rec.begin("sim.shared." + name)
		rep, err := parbs.RunContext(context.Background(), b.sys, w, s, parbs.WithAloneCache(b.cache))
		rec.end(sp)
		if err != nil {
			return opResult{}, fmt.Errorf("%s under %s: %w", w.Name(), name, err)
		}
		d.report(rep)
		reps = append(reps, rep)
	}
	if i%len(b.mixes) == 0 {
		if b.sys.Seed == defaultSeed {
			if err := checkF5(reps); err != nil {
				return opResult{}, err
			}
		}
		b.caseStudyI = reps
	}
	return opResult{digest: d.sum(), cycles: int64(len(reps)) * runCycles(b.sys)}, nil
}

// sharded runs one 16-core mix per op on four Independent channels under
// PAR-BS, sharded engine pinned to one worker.
type sharded struct {
	sys         parbs.System
	cache       *parbs.AloneCache
	mixes       []parbs.Workload
	parallelism int
}

// shardedMixCount is the length of the sharded-16c op cycle.
const shardedMixCount = 8

func shardedSystem() parbs.System {
	sys := parbs.DefaultSystem(16)
	sys.Channels = 4
	sys.ChannelMode = parbs.Independent
	sys.MeasureCycles = 1_000_000
	return sys
}

func setupSharded(seed int64, rec *recorder) (bench, error) {
	b := &sharded{sys: seededSystem(shardedSystem(), seed), cache: parbs.NewAloneCache(),
		mixes: parbs.RandomWorkloads(shardedMixCount, 16, mixSeed), parallelism: 1}
	if err := warmAloneCache(b.sys, b.cache, rec, parbs.WithParallelism(1)); err != nil {
		return nil, err
	}
	if _, err := b.op(0, rec); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return b, nil
}

func (b *sharded) listLen() int { return len(b.mixes) }
func (b *sharded) close()       {}

func (b *sharded) op(i int, rec *recorder) (opResult, error) {
	w := b.mixes[i%len(b.mixes)]
	sp := rec.begin("sim.shared_sharded")
	rep, err := parbs.RunContext(context.Background(), b.sys, w, parbs.NewPARBS(parbs.PARBSOptions{}),
		parbs.WithAloneCache(b.cache), parbs.WithParallelism(b.parallelism))
	rec.end(sp)
	if err != nil {
		return opResult{}, fmt.Errorf("%s: %w", w.Name(), err)
	}
	var d digester
	d.str(w.Name())
	d.report(rep)
	return opResult{digest: d.sum(), cycles: runCycles(b.sys)}, nil
}
