// Command experiments regenerates every table and figure of the paper's
// evaluation. By default it runs the full suite at full fidelity and writes
// one text file per artifact under -out, plus a combined report on stdout.
//
// Usage:
//
//	experiments [-run F5,T4,...] [-quick] [-out results] [-json] [-seed N]
//
// With -json (requires -out), each experiment additionally writes a
// versioned machine-readable <ID>.json artifact (schema "parbs.exp/v1")
// next to its <ID>.txt table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		runList = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick   = flag.Bool("quick", false, "reduced workload counts and cycles")
		outDir  = flag.String("out", "", "directory for per-experiment result files")
		jsonOut = flag.Bool("json", false, "also write <ID>.json artifacts under -out")
		seed    = flag.Int64("seed", 1, "workload construction seed")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *jsonOut && *outDir == "" {
		fatal(fmt.Errorf("-json requires -out"))
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exp.Experiment
	if *runList == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// Ctrl-C (or SIGTERM) cancels the context; running simulations abort at
	// their next checkpoint, parallel workers stop scheduling new runs, and
	// artifacts completed before the interrupt stay flushed on disk — no
	// partially written files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	x := exp.NewContext(*quick)
	x.Seed = *seed
	x.Ctx = ctx
	completed := 0
	for _, e := range selected {
		if ctx.Err() != nil {
			interrupted(completed, len(selected))
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.ID, e.Title)
		tb, err := e.Run(x)
		if err != nil {
			if ctx.Err() != nil {
				interrupted(completed, len(selected))
			}
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprintf(os.Stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(tb.String())
		if *outDir != "" {
			path := filepath.Join(*outDir, e.ID+".txt")
			if err := os.WriteFile(path, []byte(tb.String()), 0o644); err != nil {
				fatal(err)
			}
			if *jsonOut {
				data, err := tb.JSON()
				if err != nil {
					fatal(fmt.Errorf("%s: %w", e.ID, err))
				}
				path := filepath.Join(*outDir, e.ID+".json")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					fatal(err)
				}
			}
		}
		completed++
	}
}

// interrupted reports a clean early exit: everything finished before the
// signal is already on disk, the in-flight experiment is discarded whole.
func interrupted(completed, selected int) {
	fmt.Fprintf(os.Stderr, "experiments: interrupted; %d of %d artifacts completed and flushed\n",
		completed, selected)
	os.Exit(130)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
