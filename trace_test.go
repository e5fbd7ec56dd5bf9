package parbs

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// TestWithTraceEndToEnd drives the public tracing surface: a traced run
// yields a JSONL event log that round-trips through the versioned schema
// into the analysis store and its starvation audit, and a Chrome artifact
// that is valid JSON.
func TestWithTraceEndToEnd(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerConfig{})
	if _, err := tr.EventsJSONL(); err == nil {
		t.Error("events before the run accepted")
	}
	if _, err := tr.ChromeTrace(); err == nil {
		t.Error("chrome trace before the run accepted")
	}
	rep, err := RunContext(context.Background(), quickSystem(4), w, NewPARBS(PARBSOptions{}), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheduler != "PAR-BS" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if tr.Events() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("quick run dropped %d events", tr.Dropped())
	}

	events, err := tr.EventsJSONL()
	if err != nil {
		t.Fatal(err)
	}
	store, err := analysis.Ingest(bytes.NewReader(events))
	if err != nil {
		t.Fatalf("JSONL round-trip: %v", err)
	}
	if store.Truncated() {
		t.Error("complete JSONL ingested as truncated")
	}
	if m := store.Meta(); m.Policy != "PAR-BS" || m.Cores != 4 {
		t.Errorf("log meta wrong: %+v", m)
	}
	a := store.Audit()
	if a.Requests == 0 || a.Batches == 0 {
		t.Fatalf("audit is vacuous: %d requests, %d batches", a.Requests, a.Batches)
	}
	if !a.Verdict.Holds {
		t.Errorf("starvation audit failed on a PAR-BS run: %+v", a.Verdict)
	}

	chrome, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome) {
		t.Error("chrome trace is not valid JSON")
	}

	// Tracers are single-use, like schedulers and telemetry collectors.
	if _, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(), WithTrace(tr)); err == nil {
		t.Error("reused Tracer accepted")
	}
	// WithTrace(nil) is a no-op, matching WithTelemetry's convention.
	if _, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(), WithTrace(nil)); err != nil {
		t.Errorf("WithTrace(nil) should be a no-op, got %v", err)
	}
}

// TestTelemetryDroppedSurfaced: when the epoch ring wraps, the public
// accessor must report the overwritten epochs instead of hiding them.
func TestTelemetryDroppedSurfaced(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryConfig{EpochCycles: 2_560, MaxEpochs: 2})
	if tel.Dropped() != 0 {
		t.Errorf("Dropped() = %d before the run, want 0", tel.Dropped())
	}
	if _, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(), WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	if tel.Epochs() == 0 {
		t.Fatal("telemetry sampled nothing; test is vacuous")
	}
	if tel.Dropped() == 0 {
		t.Errorf("tiny 2-epoch ring over a long run dropped nothing (epochs=%d)", tel.Epochs())
	}
}

// TestTracerLogPrefixes: Log is nil before the run, and the logs taken at
// heartbeats are prefixes of the finished log that stay unchanged while
// the run goes on, which is what lets parbs-serve hand them to other
// goroutines without a copy. The finished log renders as EventsJSONL does.
func TestTracerLogPrefixes(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerConfig{})
	if tr.Log() != nil {
		t.Fatal("log before the run")
	}
	type taken struct {
		log    *trace.Log
		events []trace.Event // copied when taken
	}
	var prefixes []taken
	progress := WithProgress(func(Progress) {
		if log := tr.Log(); log != nil {
			prefixes = append(prefixes, taken{log, append([]trace.Event(nil), log.Events...)})
		}
	})
	if _, err := RunContext(context.Background(), quickSystem(4), w, NewPARBS(PARBSOptions{}), WithTrace(tr), progress); err != nil {
		t.Fatal(err)
	}
	final := tr.Log()
	if len(prefixes) < 2 || len(prefixes[0].events) == len(final.Events) {
		t.Fatalf("%d heartbeat logs, none a mid-run prefix of the %d events", len(prefixes), len(final.Events))
	}
	for i, p := range prefixes {
		if !slices.Equal(p.log.Events, p.events) {
			t.Fatalf("heartbeat log %d changed after it was taken", i)
		}
		if !slices.Equal(p.events, final.Events[:len(p.events)]) {
			t.Fatalf("heartbeat log %d is not a prefix of the finished log", i)
		}
	}
	var rendered bytes.Buffer
	if err := trace.WriteJSONL(&rendered, final); err != nil {
		t.Fatal(err)
	}
	if events, _ := tr.EventsJSONL(); !bytes.Equal(rendered.Bytes(), events) {
		t.Error("the finished log renders differently from EventsJSONL")
	}
}
