// Command parbs-trace records synthetic benchmark traces to text files,
// replays trace files through the simulator, and audits lifecycle event
// logs (parbs-sim -trace-events) against the paper's §4.3 Marking-Cap
// starvation bound, with per-thread worst cases. The report subcommand runs
// the windowed trace-analytics pipeline (internal/analysis): per-bank and
// per-thread bottleneck attribution, wait decomposition and latency
// percentiles over time windows, and batch timelines, with an optional
// parbs.analysis/v2 binary snapshot. The diff subcommand aligns two runs (traces or
// snapshots) into one cross-run comparison; report -follow tails a trace
// file that is still being written.
//
// Usage:
//
//	parbs-trace record -bench lbm -n 50000 -out lbm.trace
//	parbs-trace replay -sched PAR-BS -traces lbm.trace,mcf.trace
//	parbs-trace analyze run.jsonl [-json]
//	parbs-trace report run.jsonl [-json] [-windows N] [-top K] [-snapshot out.bin]
//	parbs-trace report -follow live.jsonl [-poll 500ms] [-idle 3s]
//	parbs-trace diff a.jsonl b.snapshot [-json] [-windows N] [-top K]
//
// Exit codes: 0 success; 1 data loss (dropped events, truncated stream) or
// a failed starvation-bound audit — the report is still printed; 2 usage,
// flag, or unreadable-input errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dram"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Exit codes (pinned by TestExitCodes).
const (
	exitOK        = 0 // clean run, no data loss, bounds hold
	exitViolation = 1 // data loss or starvation-bound violation; output printed
	exitUsage     = 2 // usage, flag parse, or unreadable input
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		return usage()
	}
	switch args[0] {
	case "record":
		return record(args[1:])
	case "replay":
		return replay(args[1:])
	case "analyze":
		return analyze(args[1:])
	case "report":
		return report(args[1:])
	case "diff":
		return diff(args[1:])
	default:
		return usage()
	}
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: parbs-trace record|replay|analyze|report|diff [flags]")
	return exitUsage
}

// fail reports an input or environment error (exit 2).
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "parbs-trace:", err)
	return exitUsage
}

func record(args []string) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	bench := fs.String("bench", "lbm", "Table 3 benchmark name")
	n := fs.Int("n", 50_000, "trace items to record")
	out := fs.String("out", "", "output file (default <bench>.trace)")
	thread := fs.Int("thread", 0, "thread slot (selects the address slice)")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	p, err := workload.ByName(*bench)
	if err != nil {
		return fail(err)
	}
	path := *out
	if path == "" {
		path = *bench + ".trace"
	}
	g := dram.DefaultGeometry()
	items := workload.RecordTrace(p, *thread, g, *seed, *n)
	f, err := os.Create(path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	if err := workload.WriteItems(f, items); err != nil {
		return fail(err)
	}
	loads := 0
	for _, it := range items {
		if it.HasAccess && !it.Access.IsWrite {
			loads++
		}
	}
	fmt.Printf("wrote %d items (%d loads) to %s\n", len(items), loads, path)
	return exitOK
}

func replay(args []string) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	schedName := fs.String("sched", "PAR-BS", "scheduler")
	traces := fs.String("traces", "", "comma-separated trace files, one per core")
	cycles := fs.Int64("cycles", 2_000_000, "measured CPU cycles")
	loop := fs.Bool("loop", true, "loop traces when exhausted")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	files := strings.Split(*traces, ",")
	if *traces == "" || len(files) == 0 {
		return fail(fmt.Errorf("replay needs -traces file1,file2,..."))
	}
	g := dram.DefaultGeometry()
	mix := workload.Mix{Name: "replay"}
	for _, path := range files {
		f, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return fail(err)
		}
		items, err := workload.ReadItems(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", path, err))
		}
		mix.Benchmarks = append(mix.Benchmarks, workload.TraceProfile(path, items, g, *loop))
	}
	cfg := sim.DefaultConfig(len(mix.Benchmarks))
	cfg.MeasureCPUCycles = *cycles
	policy, err := sched.ByName(*schedName)
	if err != nil {
		return fail(err)
	}
	res, err := sim.Run(cfg, mix, policy)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("replayed %d traces under %s\n", len(files), res.Policy)
	fmt.Printf("%-30s %8s %8s %8s %8s %10s\n", "trace", "IPC", "MCPI", "BLP", "RBhit", "AST/req")
	for _, th := range res.Threads {
		fmt.Printf("%-30s %8.3f %8.2f %8.2f %8.3f %10.1f\n",
			th.Benchmark, th.CPU.IPC(), th.CPU.MCPI(), th.Mem.BLP(), th.Mem.RowHitRate(), th.CPU.ASTPerReq())
	}
	fmt.Printf("bus utilization %.1f%%\n", 100*res.BusUtilization())
	return exitOK
}

// analyze runs the Marking-Cap starvation audit (analysis.Store.Audit)
// over a JSONL lifecycle event log. Ingest is tolerant: a truncated log
// still prints the audit of its prefix. Exit 1 when the log is truncated or
// an applicable starvation bound fails to hold.
func analyze(args []string) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the audit as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		return fail(fmt.Errorf("analyze needs one event-log file (from parbs-sim -trace-events), schema %s", trace.Schema))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	store, err := analysis.Ingest(f)
	f.Close()
	if err != nil {
		return fail(fmt.Errorf("%s: %w", fs.Arg(0), err))
	}
	a := store.Audit()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			return fail(err)
		}
	} else if err := a.WriteText(os.Stdout); err != nil {
		return fail(err)
	}
	if a.Truncated || (a.Verdict.Batched && !a.Verdict.Holds) {
		return exitViolation
	}
	return exitOK
}

// report runs the windowed trace-analytics pipeline over a JSONL event
// log: streaming ingest (tolerant of truncated logs), windowed
// aggregation, latency percentiles, and bottleneck attribution. Output is
// text tables by default, the full analysis.Report as JSON with -json.
// With -follow the file is tailed as it grows. Exit 1 when the trace
// carries data loss (dropped events or a truncated stream).
func report(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text tables")
	windowCycles := fs.Int64("windows", 0, "window width in DRAM cycles (0 = span/32)")
	topK := fs.Int("top", 0, "bottleneck ranking depth (0 = default 5)")
	snapshotOut := fs.String("snapshot", "", "also write a parbs.analysis/v2 binary snapshot to this file")
	follow := fs.Bool("follow", false, "tail the file as it grows, re-rendering until the log completes or stalls")
	poll := fs.Duration("poll", 500*time.Millisecond, "polling interval in -follow mode")
	idle := fs.Duration("idle", 3*time.Second, "in -follow mode, finish after this long without growth")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		return fail(fmt.Errorf("report needs one event-log file (from parbs-sim -trace-events), schema %s", trace.Schema))
	}
	opt := analysis.Options{WindowCycles: *windowCycles, TopK: *topK}
	if *follow {
		return followReport(fs.Arg(0), opt, *asJSON, *poll, *idle)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	store, err := analysis.Ingest(f)
	f.Close()
	if err != nil {
		return fail(fmt.Errorf("%s: %w", fs.Arg(0), err))
	}
	if *snapshotOut != "" {
		out, err := os.Create(*snapshotOut)
		if err != nil {
			return fail(err)
		}
		if err := store.WriteSnapshot(out); err != nil {
			out.Close()
			return fail(fmt.Errorf("write snapshot: %w", err))
		}
		if err := out.Close(); err != nil {
			return fail(err)
		}
	}
	r := store.Analyze(opt)
	if code := render(r, *asJSON); code != exitOK {
		return code
	}
	if r.Truncated {
		return exitViolation
	}
	return exitOK
}

// render writes one report as JSON or text.
func render(r *analysis.Report, asJSON bool) int {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return fail(err)
		}
		return exitOK
	}
	if err := r.WriteText(os.Stdout); err != nil {
		return fail(err)
	}
	return exitOK
}

// followReport tails path through a LiveIngester: each drain of new bytes
// re-renders the report of the prefix read so far (the same aggregates a
// post-hoc report of that prefix would show). The tail ends when the header's
// promised event count is reached (a completed log: its header is written
// with the final count) or the file stops growing for the idle window; the
// final render follows a Finalize so an unterminated last line still counts.
func followReport(path string, opt analysis.Options, asJSON bool, poll, idle time.Duration) int {
	li := analysis.NewLiveIngester()
	start := time.Now()
	var f *os.File
	for {
		var err error
		f, err = os.Open(path)
		if err == nil {
			break
		}
		if !os.IsNotExist(err) || time.Since(start) >= idle {
			return fail(err)
		}
		time.Sleep(poll)
	}
	defer f.Close()

	buf := make([]byte, 64<<10)
	lastGrowth := time.Now()
	for {
		grew := false
		for {
			n, err := f.Read(buf)
			if n > 0 {
				if ferr := li.Feed(buf[:n]); ferr != nil {
					return fail(fmt.Errorf("%s: %w", path, ferr))
				}
				grew = true
				lastGrowth = time.Now()
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return fail(err)
			}
		}
		complete := li.HeaderEvents() > 0 && li.Events() >= li.HeaderEvents()
		stalled := time.Since(lastGrowth) >= idle
		if complete || stalled {
			break
		}
		if grew {
			if rep := li.Report(opt); rep != nil && !asJSON {
				fmt.Printf("=== live: %d events ===\n", li.Events())
				if err := rep.WriteText(os.Stdout); err != nil {
					return fail(err)
				}
			}
		}
		time.Sleep(poll)
	}
	li.Finalize()
	rep := li.Report(opt)
	if rep == nil {
		return fail(fmt.Errorf("%s: no trace header before the stream ended", path))
	}
	if !asJSON {
		fmt.Printf("=== final: %d events ===\n", li.Events())
	}
	if code := render(rep, asJSON); code != exitOK {
		return code
	}
	if rep.Truncated {
		return exitViolation
	}
	return exitOK
}

// diff aligns two runs — each a parbs.trace/v1 JSONL log or a
// parbs.analysis/v* binary snapshot, sniffed by magic — and renders the
// cross-run comparison (deltas are B−A). Exit 1 when either arm carries
// data loss.
func diff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the diff as JSON instead of text tables")
	windowCycles := fs.Int64("windows", 0, "common window width in DRAM cycles (0 = longer span/32)")
	topK := fs.Int("top", 0, "bottleneck ranking depth for both arms (0 = default 5)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		return fail(fmt.Errorf("diff needs two files (trace JSONL or analysis snapshot): parbs-trace diff A B"))
	}
	a, err := loadStore(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := loadStore(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	d := analysis.Diff(a, b, analysis.Options{WindowCycles: *windowCycles, TopK: *topK})
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			return fail(err)
		}
	} else if err := d.WriteText(os.Stdout); err != nil {
		return fail(err)
	}
	if a.Truncated() || b.Truncated() {
		return exitViolation
	}
	return exitOK
}

// loadStore reads one diff arm, sniffing the format by its leading bytes.
func loadStore(path string) (*analysis.Store, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(raw, []byte("parbs.analysis/v")) {
		s, err := analysis.ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	s, err := analysis.Ingest(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
