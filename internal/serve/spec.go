// Package serve is the simulation-as-a-service layer: an HTTP/JSON API
// that accepts simulation jobs, executes them on a bounded worker pool via
// the public parbs API, and serves results and live progress.
//
// Its admission queue dogfoods the paper's scheduler one level up: jobs are
// grouped into batches per client (marked jobs strictly precede later
// arrivals, bounding worst-case wait) and clients within a batch are ranked
// Max–Total shortest-job-first by estimated cost, so one client flooding
// the queue cannot starve others. See batchsched.go and DESIGN.md §11.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	parbs "repro"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Spec is the wire form of one simulation job — the body of POST /v1/runs.
type Spec struct {
	// Client identifies the submitter for admission batching and metrics.
	// Empty maps to "anonymous".
	Client string `json:"client,omitempty"`
	// System shapes the simulated machine.
	System SystemSpec `json:"system"`
	// Workload selects the benchmark mix.
	Workload WorkloadSpec `json:"workload"`
	// Scheduler selects the DRAM scheduling policy under test.
	Scheduler SchedulerSpec `json:"scheduler"`
	// Telemetry, when present, attaches a collector; the run result then
	// embeds a parbs.telemetry/v1 report.
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	// Trace, when present, attaches a lifecycle tracer; the result keeps
	// the run's event log, and the job view embeds the Chrome trace-event
	// JSON (Perfetto-loadable) rendered from it for each response.
	Trace *TraceSpec `json:"trace,omitempty"`
	// TimeoutMS caps the job's wall-clock execution; 0 means no deadline
	// of its own. It can only shorten the server's default deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SystemSpec mirrors parbs.System. Zero fields select the paper's baseline.
type SystemSpec struct {
	Cores    int `json:"cores"`
	Channels int `json:"channels,omitempty"`
	// ChannelMode organizes the channels: "lockstep" (default) or
	// "independent" (one scheduler per channel; see parbs.ChannelMode).
	ChannelMode   string `json:"channel_mode,omitempty"`
	Banks         int    `json:"banks,omitempty"`
	MeasureCycles int64  `json:"measure_cycles,omitempty"`
	WarmupCycles  int64  `json:"warmup_cycles,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	Device        string `json:"device,omitempty"`
}

// WorkloadSpec names either a paper case study ("CSI", "CSII", "CSIII") or
// an explicit benchmark list (one per core, Table 3 names).
type WorkloadSpec struct {
	Mix        string   `json:"mix,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// SchedulerSpec selects a policy by paper name; the PAR-BS knobs apply only
// when Name is "PAR-BS".
type SchedulerSpec struct {
	Name          string `json:"name"`
	MarkingCap    *int   `json:"marking_cap,omitempty"`
	Batching      string `json:"batching,omitempty"`
	BatchDuration int64  `json:"batch_duration,omitempty"`
	Ranking       string `json:"ranking,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
}

// TelemetrySpec mirrors parbs.TelemetryConfig.
type TelemetrySpec struct {
	EpochCycles int64 `json:"epoch_cycles,omitempty"`
	MaxEpochs   int   `json:"max_epochs,omitempty"`
}

// TraceSpec mirrors parbs.TracerConfig. Events additionally serves the
// run's event log as parbs.trace/v1 JSONL at GET /v1/runs/{id}/trace,
// makes it analyzable in place via POST /v1/analysis {"run": id} and diffs
// by run, and follows it live at /v1/analysis/{id}/live.
type TraceSpec struct {
	MaxEvents int  `json:"max_events,omitempty"`
	Events    bool `json:"events,omitempty"`
}

// Baseline cycle budgets, mirrored from sim.DefaultConfig for cost
// estimation of specs that leave the fields zero.
const (
	defaultMeasureCycles = 2_000_000
	defaultWarmupCycles  = 200_000
)

// Spec ceilings. Together with the system shape bounds of
// parbs.System.Validate they cap what one job can hold: the trace and
// telemetry buffers, and so the newest result, which the retention budget
// never evicts. Every spec the repository's tests, experiments and
// benchmark send sits well inside them.
const (
	// MaxTraceEvents caps trace.max_events at the tracer's default.
	MaxTraceEvents = trace.DefaultMaxEvents
	// MaxTelemetryEpochs caps telemetry.max_epochs at the collector's
	// default.
	MaxTelemetryEpochs = telemetry.DefaultMaxEpochs
	// MaxRunCycles caps measure_cycles + warmup_cycles, defaults applied:
	// about 45 times the paper's 2.2M-cycle run.
	MaxRunCycles = 100_000_000
)

// normalize fills defaults and validates everything validatable without
// running: system shape, workload existence and length, scheduler options.
func (sp *Spec) normalize() error {
	if sp.Client == "" {
		sp.Client = "anonymous"
	}
	if sp.System.Cores <= 0 {
		return fmt.Errorf("system.cores must be positive, got %d", sp.System.Cores)
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative, got %d", sp.TimeoutMS)
	}
	if err := sp.system().Validate(); err != nil {
		return err
	}
	if c := sp.cycles(); c > MaxRunCycles {
		return fmt.Errorf("system.measure_cycles + warmup_cycles is %d, over the %d ceiling", c, MaxRunCycles)
	}
	if sp.Trace != nil && sp.Trace.MaxEvents > MaxTraceEvents {
		return fmt.Errorf("trace.max_events is %d, over the %d ceiling", sp.Trace.MaxEvents, MaxTraceEvents)
	}
	if sp.Telemetry != nil && sp.Telemetry.MaxEpochs > MaxTelemetryEpochs {
		return fmt.Errorf("telemetry.max_epochs is %d, over the %d ceiling", sp.Telemetry.MaxEpochs, MaxTelemetryEpochs)
	}
	w, err := sp.workload()
	if err != nil {
		return err
	}
	if got := len(w.Benchmarks()); got != sp.System.Cores {
		return fmt.Errorf("workload %q has %d benchmarks for %d cores", w.Name(), got, sp.System.Cores)
	}
	if _, err := sp.scheduler(); err != nil {
		return err
	}
	return nil
}

// system lowers the spec onto a parbs.System.
func (sp Spec) system() parbs.System {
	sys := parbs.DefaultSystem(sp.System.Cores)
	sys.Channels = sp.System.Channels
	sys.ChannelMode = parbs.ChannelMode(sp.System.ChannelMode)
	sys.Banks = sp.System.Banks
	sys.MeasureCycles = sp.System.MeasureCycles
	sys.WarmupCycles = sp.System.WarmupCycles
	if sp.System.Seed != 0 {
		sys.Seed = sp.System.Seed
	}
	sys.Device = parbs.Device(sp.System.Device)
	return sys
}

// workload resolves the mix name or benchmark list.
func (sp Spec) workload() (parbs.Workload, error) {
	switch {
	case sp.Workload.Mix != "" && len(sp.Workload.Benchmarks) > 0:
		return parbs.Workload{}, fmt.Errorf("workload: give either mix or benchmarks, not both")
	case sp.Workload.Mix != "":
		switch sp.Workload.Mix {
		case "CSI":
			return parbs.CaseStudyI(), nil
		case "CSII":
			return parbs.CaseStudyII(), nil
		case "CSIII":
			return parbs.CaseStudyIII(), nil
		}
		return parbs.Workload{}, fmt.Errorf("workload: unknown mix %q (want CSI, CSII, CSIII or benchmarks)", sp.Workload.Mix)
	case len(sp.Workload.Benchmarks) > 0:
		return parbs.WorkloadFromNames(sp.Workload.Benchmarks...)
	}
	return parbs.Workload{}, fmt.Errorf("workload: needs a mix name or a benchmark list")
}

// scheduler constructs a fresh policy instance (parbs schedulers are
// single-use; one is built per execution and per validation).
func (sp Spec) scheduler() (parbs.Scheduler, error) {
	if sp.Scheduler.Name == "" {
		return parbs.Scheduler{}, fmt.Errorf("scheduler.name is required (one of %v)", parbs.SchedulerNames())
	}
	if sp.Scheduler.Name != "PAR-BS" {
		return parbs.SchedulerByName(sp.Scheduler.Name)
	}
	opts := parbs.PARBSOptions{
		Batching:      parbs.Batching(sp.Scheduler.Batching),
		BatchDuration: sp.Scheduler.BatchDuration,
		Ranking:       parbs.Ranking(sp.Scheduler.Ranking),
		Seed:          sp.Scheduler.Seed,
	}
	if sp.Scheduler.MarkingCap != nil {
		opts.MarkingCap = *sp.Scheduler.MarkingCap
	}
	return parbs.NewPARBSWithOptions(opts)
}

// timeout returns the job's execution deadline, 0 for none.
func (sp Spec) timeout() time.Duration {
	return time.Duration(sp.TimeoutMS) * time.Millisecond
}

// cycles returns the simulated CPU cycles, warmup included, defaults
// applied. The sum saturates rather than overflows.
func (sp Spec) cycles() int64 {
	measure := sp.System.MeasureCycles
	if measure <= 0 {
		measure = defaultMeasureCycles
	}
	warmup := sp.System.WarmupCycles
	if warmup <= 0 {
		warmup = defaultWarmupCycles
	}
	if measure > math.MaxInt64-warmup {
		return math.MaxInt64
	}
	return measure + warmup
}

// cost estimates the job's work as simulated cycles × cores — the
// admission scheduler's Max–Total ranking signal (shorter estimated jobs
// rank first within a batch, the paper's shortest-job-first rule).
func (sp Spec) cost() int64 {
	return sp.cycles() * int64(sp.System.Cores)
}

// hash is the job's content hash: identical simulations (regardless of the
// submitting client or its timeout, which cannot change results) hash
// equal, keying the result cache.
func (sp Spec) hash() string {
	canonical := struct {
		System    SystemSpec     `json:"system"`
		Workload  WorkloadSpec   `json:"workload"`
		Scheduler SchedulerSpec  `json:"scheduler"`
		Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
		Trace     *TraceSpec     `json:"trace,omitempty"`
	}{sp.System, sp.Workload, sp.Scheduler, sp.Telemetry, sp.Trace}
	data, err := json.Marshal(canonical)
	if err != nil {
		// Spec is plain data; Marshal cannot fail. Keep a distinct key
		// anyway so a miss is the worst outcome.
		return fmt.Sprintf("unhashable:%v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
