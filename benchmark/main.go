// Command benchmark is the PAR-BS simulator's end-to-end benchmark. It runs
// one closed-loop workload (one client, one op outstanding) and prints, as
// the last line of standard output, one JSON object with the run's
// correctness, op counts and metrics.
//
//	go run . --workload csi-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it times the workload untraced and reports the end-to-end
// metrics; with --trace 1 it records spans around calls into each layer
// and runs the per-layer rigs, and reports the per-layer metrics. See
// BENCHMARK.json at the repository root for what each workload and metric
// is for. Run it from the repository root (run.sh does).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	parbs "repro"
)

// setupReps is how many times a timed run sets its workload up; setup_s is
// the median.
const setupReps = 3

// setupCalSamples is how many calibration kernel times are taken before
// each set-up and after the last. Set-up is scaled by the host speed
// measured around the set-ups, not over the whole run: the set-ups take the
// first few seconds of a run, and the host's speed then often differs from
// its speed over the ops.
const setupCalSamples = 5

func main() {
	wl := flag.String("workload", "csi-sweep", "workload to run")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts ops and keeps the latencies of those that passed.
type tally struct {
	attempted, failed int
	cycles            int64
	latMS             []float64
	digests           []string
}

// record accounts for op i: an error from the op or from its check makes
// it a failed op.
func (t *tally) record(c *checker, i int, res opResult, err error, lat time.Duration) {
	t.attempted++
	if err == nil {
		err = c.check(i, res.digest)
	}
	t.digests = append(t.digests, res.digest)
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
		}
		return
	}
	t.cycles += res.cycles
	t.latMS = append(t.latMS, float64(lat.Nanoseconds())/1e6)
}

func run(wl string, seed int64, seconds int, traced bool) error {
	def, err := workloadByName(wl)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	pins, err := pinnedDigests()
	if err != nil {
		return err
	}
	var want []string
	if seed == defaultSeed {
		want = pins[wl]
	}
	before := sampleHost()
	var res result
	if traced {
		res, err = tracedRun(def, seed, seconds, want, root)
	} else {
		res, err = timedRun(def, seed, seconds, want)
	}
	if err != nil {
		return err
	}
	steal, pressure := contention(before, sampleHost())
	meta := hostMeta(root)
	meta["workload"], meta["seed"], meta["seconds"], meta["trace"] = wl, seed, seconds, traced
	meta["host_steal_pct"], meta["host_cpu_pressure_some_pct"] = steal, pressure
	line, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Printf("run metadata: %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// timedRun sets the workload up setupReps times, then runs ops untraced
// for the measured phase and reports the end-to-end metrics, with host
// times scaled to the reference host (see calibrate.go). It prints the
// ops' digests, in pinned.json's form, for re-pinning after a deliberate
// change to the simulator's output.
func timedRun(def workloadDef, seed int64, seconds int, pins []string) (result, error) {
	var cal, setupCal calibration
	var setups []float64
	var b bench
	setupHost := sampleHost()
	for k := 0; k < setupReps; k++ {
		if b != nil {
			b.close()
		}
		setupCal.sampleN(setupCalSamples)
		start := time.Now()
		var err error
		if b, err = def.setup(seed, nil); err != nil {
			return result{}, fmt.Errorf("set up %s: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupCal.sampleN(setupCalSamples)
	setupSteal, _ := contention(setupHost, sampleHost())
	c := newChecker(pins, b.listLen())
	var t tally
	var calTime time.Duration
	opHost := sampleHost()
	n := def.ops(seconds)
	start := time.Now()
	for i := 0; i < n; i++ {
		calTime += cal.sample()
		t0 := time.Now()
		res, err := b.op(i, nil)
		t.record(c, i, res, err, time.Since(t0))
	}
	wall := (time.Since(start) - calTime).Seconds()
	opSteal, _ := contention(opHost, sampleHost())
	b.close()
	digests, err := json.Marshal(map[string][]string{def.name: t.digests})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("digests: %s\n", digests)
	if cs, ok := b.(*csiSweep); ok {
		printAccuracy(cs)
	}
	if len(t.latMS) == 0 {
		return result{Correct: false, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}, nil
	}
	p, ok := tailPercentile(len(t.latMS))
	raw := endToEnd(throughput(t.cycles, wall), median(t.latMS), nearestRank(t.latMS, float64(p)), median(setups), maxRSSMB())
	slow, setupSlow := hostScale(cal, opSteal), hostScale(setupCal, setupSteal)
	fmt.Printf("ops: %d attempted, %d failed, %d timed in %.1f s; op_ms_tail is p%d of %d ops (enough for a tail: %v)\n",
		t.attempted, t.failed, len(t.latMS), wall, p, len(t.latMS), ok)
	fmt.Printf("host: calibration kernel median %.3f ms over %d op samples (reference host %.1f ms), steal %.2f%%: %.3fx slower than the reference host; set-up: %d samples, steal %.2f%%: %.3fx\n",
		median(cal.samples), len(cal.samples), calRefMS, opSteal, slow, len(setupCal.samples), setupSteal, setupSlow)
	fmt.Printf("unscaled host figures: %.4f Mcycles/s, op p50 %.3f ms, op p%d %.3f ms, set-up %.3f s (each of %v)\n",
		raw["sim_mcycles_per_s"].Value, raw["op_ms_p50"].Value, p, raw["op_ms_tail"].Value, raw["setup_s"].Value, setups)
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: endToEnd(raw["sim_mcycles_per_s"].Value*slow, raw["op_ms_p50"].Value/slow,
			raw["op_ms_tail"].Value/slow, raw["setup_s"].Value/setupSlow, raw["max_rss_mb"].Value),
	}, nil
}

// endToEndUnits maps each end-to-end metric to its unit.
// Host times are in reference-host units (ref-). setup_s is scaled the same
// way, but its unit is plain "s", the unit BENCHMARK.json's format fixes
// for the set-up time.
func endToEndUnits() map[string]string {
	return map[string]string{"sim_mcycles_per_s": "ref-Mcycles/s", "op_ms_p50": "ref-ms", "op_ms_tail": "ref-ms", "setup_s": "s", "max_rss_mb": "MB"}
}

func endToEnd(mcyclesPerS, p50, tail, setup, rss float64) map[string]metric {
	u := endToEndUnits()
	return map[string]metric{
		"sim_mcycles_per_s": {mcyclesPerS, u["sim_mcycles_per_s"]},
		"op_ms_p50":         {p50, u["op_ms_p50"]},
		"op_ms_tail":        {tail, u["op_ms_tail"]},
		"setup_s":           {setup, u["setup_s"]},
		"max_rss_mb":        {rss, u["max_rss_mb"]},
	}
}

// printAccuracy prints the Case Study I op's simulated fairness and
// throughput next to the paper's figures.
func printAccuracy(b *csiSweep) {
	if b.caseStudyI == nil {
		return
	}
	fmt.Println("Case Study I (simulated time; the model is not validated against real hardware):")
	fmt.Printf("  %-8s %18s %18s %10s\n", "sched", "unfairness sim", "unfairness paper", "wspeedup")
	for i, r := range b.caseStudyI {
		fmt.Printf("  %-8s %18.2f %18.2f %10.3f\n", r.Scheduler, r.Unfairness, paperF5[i].paper, r.WeightedSpeedup)
	}
	fmt.Println("  paper weighted speedups for Case Study I are not recorded in EXPERIMENTS.md")
}

// gcCPUSeconds reads the runtime's cumulative GC and total CPU time.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// crossOps is how many traced ops the traced run makes of each workload
// other than its own, to time that workload's layers.
var crossOps = map[string]int{"csi-sweep": 1, "sharded-16c": 1, "serve-traced": 3}

// tracedRun sets up every workload with spans on, runs the chosen one's
// ops untraced and traced in pairs, a few traced ops of the others, and
// the layer rigs, and reports the per-layer metrics.
func tracedRun(def workloadDef, seed int64, seconds int, pins []string, root string) (result, error) {
	rec := newRecorder()
	m := map[string]float64{}
	var t tally
	var heapMB, heapOps []float64 // live heap after GC, per serve op
	var overheadUntraced, overheadTraced []float64
	for _, x := range workloads {
		b, err := x.setup(seed, rec)
		if err != nil {
			return result{}, fmt.Errorf("set up %s: %w", x.name, err)
		}
		own := x.name == def.name
		c := newChecker(nil, b.listLen())
		if own {
			c.pins = pins
		}
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		gc0, cpu0 := gcCPUSeconds()
		// forcedGC and forcedCPU are the GC and total CPU seconds of the
		// collections forced to read the live heap; they are taken out of
		// the window go.gc_cpu_pct is read over.
		var forcedGC, forcedCPU float64
		ops := 0
		start := time.Now()
		for i := 0; ; i++ {
			if own && ops >= 4 && time.Since(start) >= time.Duration(seconds)*time.Second*3/10 ||
				!own && ops >= crossOps[x.name] {
				break
			}
			for _, a := range opArms(own, x, i) {
				r := (*recorder)(nil)
				if a.traced {
					r = rec
				}
				r.setOp(a.op)
				sp := r.begin("op." + x.name)
				t0 := time.Now()
				res, err := b.op(a.op, r)
				lat := time.Since(t0)
				r.end(sp)
				r.setOp(-1)
				ops++
				if !own {
					if err == nil {
						err = c.check(a.op, res.digest)
					}
					if err != nil {
						return result{}, fmt.Errorf("%s op %d: %w", x.name, a.op, err)
					}
				} else {
					t.record(c, a.op, res, err, lat)
					ms := float64(lat.Nanoseconds()) / 1e6
					if a.traced {
						overheadTraced = append(overheadTraced, ms)
					} else {
						overheadUntraced = append(overheadUntraced, ms)
					}
				}
				if x.name == "serve-traced" && a.traced {
					var ms runtime.MemStats
					gcA, _ := gcCPUSeconds()
					gcStart := time.Now()
					runtime.GC()
					forcedCPU += time.Since(gcStart).Seconds() * float64(runtime.GOMAXPROCS(0))
					gcB, _ := gcCPUSeconds()
					forcedGC += gcB - gcA
					runtime.ReadMemStats(&ms)
					heapOps = append(heapOps, float64(len(heapOps)+1))
					heapMB = append(heapMB, float64(ms.HeapAlloc)/(1<<20))
				}
			}
		}
		if own {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			gc1, cpu1 := gcCPUSeconds()
			m["go.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(ops)
			m["go.gc_cpu_pct"] = 0 // kept when the runtime's CPU estimate did not advance
			if cpu := cpu1 - cpu0 - forcedCPU; cpu > 0 {
				m["go.gc_cpu_pct"] = 100 * (gc1 - gc0 - forcedGC) / cpu
			}
		}
		if sb, ok := b.(*sharded); ok {
			if m["sim.parallel_speedup"], err = parallelSpeedup(sb); err != nil {
				return result{}, err
			}
		}
		b.close()
	}
	if len(overheadUntraced) == 0 || len(overheadTraced) == 0 {
		return result{}, fmt.Errorf("traced run made no ops of %s", def.name)
	}
	m["bench.span_overhead_pct"] = 100 * (median(overheadTraced) - median(overheadUntraced)) / median(overheadUntraced)
	m["serve.retained_mb_per_op"] = slope(heapOps, heapMB)
	for _, name := range parbs.SchedulerNames() {
		m["sim.shared_ms."+name] = median(rec.durations("sim.shared." + name))
	}
	for metricName, spanName := range map[string]string{
		"serve.submit_ms": "serve.submit", "serve.queue_wait_ms": "serve.queue_wait", "serve.run_ms": "serve.run",
		"serve.notify_ms": "serve.notify", "serve.result_get_ms": "serve.result_get", "serve.analysis_ms": "serve.analysis",
	} {
		m[metricName] = median(rec.durations(spanName))
	}
	if n := len(rec.durations("serve.result_get")); n > 0 {
		m["serve.result_mb"] = rec.counts["serve.result_bytes"] / (1 << 20) / float64(n)
	}
	if err := layerRigs(def, seed, rec, m); err != nil {
		return result{}, err
	}

	dir := filepath.Join(root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", def.name, seed))
	if err := rec.write(path); err != nil {
		return result{}, err
	}
	for _, line := range rec.summary() {
		fmt.Println(line)
	}
	fmt.Printf("spans written to %s\n", path)

	out := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, pm := range perLayerMetrics() {
		v, ok := m[pm.name]
		if !ok {
			return result{}, fmt.Errorf("traced run did not measure %s", pm.name)
		}
		out.Metrics[pm.name] = metric{v, pm.unit}
	}
	return out, nil
}

// layerRigs runs the per-layer rigs on the inputs of workload def.
func layerRigs(def workloadDef, seed int64, rec *recorder, m map[string]float64) error {
	for _, pol := range decisionPolicies() {
		for _, occ := range decisionOccupancies {
			v, err := medianOf(rigReps, func() (float64, error) { return decisionNS(pol, occ) })
			if err != nil {
				return err
			}
			m[decisionMetric(pol, occ)] = v
		}
	}
	var err error
	if m["dram.check_ns"], err = medianOf(rigReps, deviceCheckNS); err != nil {
		return err
	}
	sys, mix, err := rigInputs(def.name, seed)
	if err != nil {
		return err
	}
	if m["cpu.tick_ns"], err = medianOf(rigReps, func() (float64, error) { return coreTickNS(mix.Benchmarks()) }); err != nil {
		return err
	}
	if m["workload.item_ns"], err = medianOf(rigReps, func() (float64, error) { return traceItemNS(mix.Benchmarks()) }); err != nil {
		return err
	}
	if err := simLoopStats(sys, mix, m); err != nil {
		return err
	}
	if m["sim.alone_ms"], err = aloneMS(sys, rec); err != nil {
		return err
	}
	return observerCosts(seed, m)
}

// perLayerMetric is a per-layer metric's name and unit.
type perLayerMetric struct{ name, unit string }

// perLayerMetrics lists every per-layer metric in reporting order; it
// must match BENCHMARK.json's per_layer list.
func perLayerMetrics() []perLayerMetric {
	var out []perLayerMetric
	for _, pol := range decisionPolicies() {
		for _, occ := range decisionOccupancies {
			out = append(out, perLayerMetric{decisionMetric(pol, occ), "ns"})
		}
	}
	out = append(out,
		perLayerMetric{"dram.check_ns", "ns"},
		perLayerMetric{"memctrl.cmds_per_eval_cycle", "count"},
		perLayerMetric{"sim.eval_pct", "%"},
		perLayerMetric{"sim.eval_cycle_ns", "ns"},
	)
	for _, name := range parbs.SchedulerNames() {
		out = append(out, perLayerMetric{"sim.shared_ms." + name, "ms"})
	}
	out = append(out,
		perLayerMetric{"sim.alone_ms", "ms"},
		perLayerMetric{"sim.parallel_speedup", "x"},
		perLayerMetric{"cpu.tick_ns", "ns"},
		perLayerMetric{"workload.item_ns", "ns"},
		perLayerMetric{"telemetry.overhead_pct", "%"},
		perLayerMetric{"trace.record_overhead_pct", "%"},
		perLayerMetric{"trace.events_per_op", "count"},
		perLayerMetric{"trace.jsonl_ns_per_event", "ns"},
		perLayerMetric{"trace.chrome_ns_per_event", "ns"},
		perLayerMetric{"analysis.ingest_ns_per_event", "ns"},
		perLayerMetric{"analysis.analyze_ms", "ms"},
		perLayerMetric{"serve.submit_ms", "ms"},
		perLayerMetric{"serve.queue_wait_ms", "ms"},
		perLayerMetric{"serve.run_ms", "ms"},
		perLayerMetric{"serve.notify_ms", "ms"},
		perLayerMetric{"serve.result_get_ms", "ms"},
		perLayerMetric{"serve.result_mb", "MB"},
		perLayerMetric{"serve.analysis_ms", "ms"},
		perLayerMetric{"serve.retained_mb_per_op", "MB"},
		perLayerMetric{"go.alloc_mb_per_op", "MB"},
		perLayerMetric{"go.gc_cpu_pct", "%"},
		perLayerMetric{"bench.span_overhead_pct", "%"},
	)
	return out
}

// opArm is one run of an op in the traced run: the op index it runs and
// whether spans are recorded.
type opArm struct {
	op     int
	traced bool
}

// opArms lists op i's runs. In its own traced run a workload runs each op
// untraced and then traced, so the two can be compared on the same input.
// serve-traced specs cannot repeat without a result-cache hit, so its
// untraced arm runs op i's twin: the same mix and scheduler with another
// address-stream seed. Other workloads' ops run traced only.
func opArms(own bool, x workloadDef, i int) []opArm {
	switch {
	case !own:
		return []opArm{{i, true}}
	case x.name == "serve-traced":
		return []opArm{{i + serveTwin, false}, {i, true}}
	default:
		return []opArm{{i, false}, {i, true}}
	}
}

// rigInputs is the system and first mix of a workload, for the rigs that
// time one layer on that workload's inputs.
func rigInputs(name string, seed int64) (parbs.System, parbs.Workload, error) {
	switch name {
	case "sharded-16c":
		return seededSystem(shardedSystem(), seed), parbs.RandomWorkloads(1, 16, mixSeed)[0], nil
	case "serve-traced":
		sysSeed, benchmarks, _ := serveStreamSpec(seed, 0)
		w, err := parbs.WorkloadFromNames(benchmarks...)
		return serveSystem(sysSeed), w, err
	default:
		return seededSystem(parbs.DefaultSystem(4), seed), parbs.CaseStudyI(), nil
	}
}
