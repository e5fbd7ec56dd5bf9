package parbs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/analysis"
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
