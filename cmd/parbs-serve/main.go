// Command parbs-serve runs the simulation service: an HTTP/JSON API that
// accepts simulation jobs, schedules them through a PAR-BS-style admission
// queue (per-client batching + Max–Total shortest-job-first ranking), and
// executes them on a bounded worker pool.
//
// Endpoints:
//
//	POST /v1/runs                        submit a job (202 queued, 200 cached replay)
//	GET  /v1/runs/{id}                   job status + report/telemetry when done
//	GET  /v1/runs/{id}/events            live progress via Server-Sent Events
//	GET  /v1/runs/{id}/trace             raw parbs.trace/v1 JSONL (trace.events jobs)
//	POST /v1/analysis                    analyze a trace: {"run": id} or raw JSONL body
//	GET  /v1/analysis/{id}               windowed bottleneck report (JSON)
//	GET  /v1/analysis/{id}/report        the same report as text tables
//	GET  /v1/analysis/{id}/dashboard     embedded HTML dashboard (inline SVG)
//	GET  /v1/analysis/{id}/snapshot      parbs.analysis/v2 binary snapshot
//	GET  /v1/analysis/{id}/live          live analysis of a running trace.events
//	                                     job via SSE (report snapshots, then done)
//	GET  /v1/analysis/{id}/live/dashboard  auto-refreshing live HTML dashboard
//	POST /v1/analysis/diff               cross-run diff: {"a": id, "b": id} or
//	                                     multipart snapshot/trace uploads
//	GET  /v1/diffs/{id}                  retained diff report (JSON)
//	GET  /v1/diffs/{id}/report           the same diff as text tables
//	GET  /v1/diffs/{id}/dashboard        side-by-side A/B diff dashboard
//	GET  /healthz                        liveness (503 while draining)
//	GET  /metrics                        Prometheus text exposition
//
// Finished results and trace analyses are retained under -max-result-bytes;
// past it the least recently used one is evicted. An evicted run's payload
// endpoints answer 410 Gone while its record and status remain; an evicted
// analysis answers 404.
//
// SIGINT/SIGTERM triggers a graceful drain: admissions stop, every accepted
// job runs to completion (bounded by -drain-timeout), then the listener
// closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8380", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue", 64, "admission queue capacity (beyond it: 429)")
	admission := flag.String("admission", "parbs", "admission discipline: parbs | fifo")
	markingCap := flag.Int("marking-cap", 5, "jobs marked per client per admission batch")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline; a spec's timeout_ms may only shorten it (0 = none)")
	maxJobs := flag.Int("max-jobs", 0, "job records retained before oldest terminal ones are evicted (0 = default, negative = unbounded)")
	maxResultBytes := flag.Int64("max-result-bytes", 0, "bytes of finished-job results and trace analyses retained before the least recently used are evicted (0 = default 128 MiB, negative = unbounded)")
	maxAnalyses := flag.Int("max-analyses", 0, "trace analyses retained before oldest are evicted (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "graceful-shutdown drain budget before in-flight jobs are aborted")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
	flag.Parse()

	var adm serve.Admission
	switch *admission {
	case "parbs":
		adm = serve.AdmissionPARBS
	case "fifo":
		adm = serve.AdmissionFIFO
	default:
		fmt.Fprintf(os.Stderr, "parbs-serve: unknown -admission %q (want parbs or fifo)\n", *admission)
		os.Exit(2)
	}

	sv := serve.New(serve.Options{
		Workers:        *workers,
		QueueCap:       *queueCap,
		Admission:      adm,
		MarkingCap:     *markingCap,
		DefaultTimeout: *jobTimeout,
		MaxJobs:        *maxJobs,
		MaxResultBytes: *maxResultBytes,
		MaxAnalyses:    *maxAnalyses,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: sv.Handler()}

	// The profiler gets its own mux and listener so the debug endpoints are
	// never reachable through the service address; bind it to localhost.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("parbs-serve: pprof listener: %v", err)
			}
		}()
		log.Printf("parbs-serve: pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	poolSize := *workers
	if poolSize <= 0 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("parbs-serve: listening on %s (admission=%s workers=%d queue=%d)",
		*addr, adm, poolSize, *queueCap)

	select {
	case err := <-errc:
		log.Fatalf("parbs-serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("parbs-serve: draining (budget %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := sv.Shutdown(drainCtx); err != nil {
		log.Printf("parbs-serve: drain overran its budget; in-flight jobs aborted: %v", err)
	}
	// Jobs are done (or aborted); now close the listener so SSE streams and
	// pending responses finish cleanly.
	closeCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(closeCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("parbs-serve: http shutdown: %v", err)
	}
	log.Printf("parbs-serve: stopped")
}
