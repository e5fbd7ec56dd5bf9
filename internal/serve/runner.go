package serve

import (
	"context"
	"encoding/json"
	"fmt"

	parbs "repro"
	"repro/internal/trace"
)

// Sink receives a running job's observability streams. Either hook may be
// nil; both are invoked synchronously from the goroutine running the job
// (the one that calls parbs.RunContext), one call at a time, so they must
// be fast and must not block.
type Sink struct {
	// Progress receives heartbeat snapshots (SSE /events, occupancy gauges).
	Progress func(parbs.Progress)
	// TraceLog receives the job's event log as recorded so far, at each
	// heartbeat once the traced run has started. Each log extends the one
	// before, and shares its storage with the running tracer, which only
	// appends: it stays unchanged, may be read from any goroutine, and must
	// not be modified. The live-analysis endpoints feed it to their
	// ingesters as it is. A sharded run's events appear only once it ends.
	TraceLog func(*trace.Log)
}

// Runner executes one validated job spec. The default is SimulationRunner;
// tests substitute stubs to make scheduling behavior observable without
// paying for real simulations.
//
// The Report and Telemetry of a returned Result may be any valid JSON,
// indented or not; the server canonicalizes them (see Result) and fails the
// job with an "invalid <name> artifact" error if one is not valid JSON. The
// server does not modify the returned Result.
type Runner func(ctx context.Context, spec Spec, sink Sink) (*Result, error)

// reportJSON is the wire form of a parbs.Report, embedded in run results.
type reportJSON struct {
	Scheduler        string             `json:"scheduler"`
	Unfairness       float64            `json:"unfairness"`
	WeightedSpeedup  float64            `json:"weighted_speedup"`
	HmeanSpeedup     float64            `json:"hmean_speedup"`
	WorstCaseLatency int64              `json:"worst_case_latency"`
	BusUtilization   float64            `json:"bus_utilization"`
	Threads          []threadReportJSON `json:"threads"`
}

type threadReportJSON struct {
	Benchmark   string  `json:"benchmark"`
	MemSlowdown float64 `json:"mem_slowdown"`
	IPC         float64 `json:"ipc"`
	BLP         float64 `json:"blp"`
	RowHitRate  float64 `json:"row_hit_rate"`
	ASTPerReq   float64 `json:"ast_per_req"`
}

func marshalReport(rep parbs.Report) (json.RawMessage, error) {
	out := reportJSON{
		Scheduler:        rep.Scheduler,
		Unfairness:       rep.Unfairness,
		WeightedSpeedup:  rep.WeightedSpeedup,
		HmeanSpeedup:     rep.HmeanSpeedup,
		WorstCaseLatency: rep.WorstCaseLatency,
		BusUtilization:   rep.BusUtilization,
	}
	for _, t := range rep.Threads {
		out.Threads = append(out.Threads, threadReportJSON{
			Benchmark:   t.Benchmark,
			MemSlowdown: t.MemSlowdown,
			IPC:         t.IPC,
			BLP:         t.BLP,
			RowHitRate:  t.RowHitRate,
			ASTPerReq:   t.ASTPerReq,
		})
	}
	return json.Marshal(out)
}

// SimulationRunner returns the production Runner: it lowers the spec onto
// the public parbs API and executes it under the job's context, sharing
// alone-run baselines across jobs through cache (identical system shapes
// skip the baseline simulations entirely).
func SimulationRunner(cache *parbs.AloneCache) Runner {
	return func(ctx context.Context, spec Spec, sink Sink) (*Result, error) {
		w, err := spec.workload()
		if err != nil {
			return nil, err
		}
		sched, err := spec.scheduler()
		if err != nil {
			return nil, err
		}
		var opts []parbs.RunOption
		if cache != nil {
			opts = append(opts, parbs.WithAloneCache(cache))
		}
		var tel *parbs.Telemetry
		if spec.Telemetry != nil {
			tel = parbs.NewTelemetry(parbs.TelemetryConfig{
				EpochCycles: spec.Telemetry.EpochCycles,
				MaxEpochs:   spec.Telemetry.MaxEpochs,
			})
			opts = append(opts, parbs.WithTelemetry(tel))
		}
		var tracer *parbs.Tracer
		var traceLog func(*trace.Log)
		if spec.Trace != nil {
			tracer = parbs.NewTracer(parbs.TracerConfig{MaxEvents: spec.Trace.MaxEvents})
			opts = append(opts, parbs.WithTrace(tracer))
			if spec.Trace.Events {
				traceLog = sink.TraceLog
			}
		}
		// Progress callbacks fire synchronously on this goroutine, where the
		// shared run steps: RunContext relays the heartbeats of baselines it
		// simulates on helper goroutines here too. This is the one place a
		// mid-run look at the tracer is race-free.
		if sink.Progress != nil || traceLog != nil {
			opts = append(opts, parbs.WithProgress(func(p parbs.Progress) {
				if sink.Progress != nil {
					sink.Progress(p)
				}
				if traceLog != nil {
					if log := tracer.Log(); log != nil {
						traceLog(log)
					}
				}
			}))
		}
		rep, err := parbs.RunContext(ctx, spec.system(), w, sched, opts...)
		if err != nil {
			return nil, err
		}
		res := &Result{}
		if res.Report, err = marshalReport(rep); err != nil {
			return nil, fmt.Errorf("marshal report: %w", err)
		}
		if tel != nil {
			if res.Telemetry, err = tel.JSON(); err != nil {
				return nil, fmt.Errorf("render telemetry: %w", err)
			}
		}
		if tracer != nil {
			res.TraceLog = tracer.Log().Clone()
		}
		return res, nil
	}
}
