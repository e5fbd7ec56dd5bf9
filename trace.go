package parbs

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/trace"
)

// TraceSchema identifies the JSONL event-log wire format produced by
// Tracer.WriteEvents (and consumed by parbs-trace analyze). Readers should
// reject logs with a different schema string.
const TraceSchema = trace.Schema

// TracerConfig sizes a Tracer. The zero value selects the defaults.
type TracerConfig struct {
	// MaxEvents caps the buffered lifecycle events (default 2^20); beyond
	// it new events are dropped and counted, keeping the recorded prefix
	// complete.
	MaxEvents int
}

// Tracer records event-level request lifecycles from one run: arrival,
// marking into a batch, every DRAM command issued on the request's behalf
// (with the thread's rank at issue time), and data return, plus batch
// formation/drain spans. Tracers are passive — the command stream is
// byte-identical with and without one — and complement Telemetry's epoch
// aggregates with per-request forensics.
//
// Attach with WithTrace; after the run returns, render with WriteChrome
// (Perfetto / chrome://tracing) or WriteEvents (versioned JSONL for
// parbs-trace analyze). Like Scheduler, a tracer serves a single run:
// construct a fresh one per RunContext call.
type Tracer struct {
	cfg   TracerConfig
	inner *trace.Tracer
	bound bool
	done  bool
}

// NewTracer returns a tracer with the given configuration.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{cfg: cfg, inner: trace.NewTracer(trace.Config{MaxEvents: cfg.MaxEvents})}
}

// bind hands the internal tracer to the run. It errors on reuse.
func (t *Tracer) bind() (*trace.Tracer, error) {
	if t.bound {
		return nil, fmt.Errorf("parbs: Tracer was already used in a run; construct a fresh one per run")
	}
	t.bound = true
	return t.inner, nil
}

// finish marks the recording complete; called by RunContext after the
// shared run returns.
func (t *Tracer) finish() { t.done = true }

// Events returns the number of lifecycle events recorded.
func (t *Tracer) Events() int { return t.inner.Events() }

// Dropped returns how many events were discarded after the buffer filled.
// Size MaxEvents up if it is non-zero and the tail matters.
func (t *Tracer) Dropped() int64 { return t.inner.Dropped() }

// WriteEvents renders the recorded run as schema-versioned JSONL (one JSON
// object per line, header first; schema TraceSchema). It errors if the run
// has not completed.
func (t *Tracer) WriteEvents(w io.Writer) error {
	if !t.done {
		return fmt.Errorf("parbs: no trace recorded until the run completes")
	}
	return t.inner.WriteJSONL(w)
}

// EventsJSONL renders WriteEvents into memory.
func (t *Tracer) EventsJSONL() ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteEvents(&buf); err != nil {
		return nil, err
	}
	return exact(buf.Bytes()), nil
}

// exact returns b in a slice of its own length. The in-memory renderings
// are artifacts a caller may keep, and the growth slack of the buffer they
// were written into would otherwise stay allocated with them: up to half
// the capacity of a Chrome trace.
func exact(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// WriteChrome renders the recorded run as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing: threads as tracks, requests as spans
// with their wait decomposition in args, batches as async spans. It errors
// if the run has not completed.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if !t.done {
		return fmt.Errorf("parbs: no trace recorded until the run completes")
	}
	return t.inner.WriteChrome(w)
}

// ChromeTrace renders WriteChrome into memory.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteChrome(&buf); err != nil {
		return nil, err
	}
	return exact(buf.Bytes()), nil
}

// WithTrace attaches a lifecycle tracer to the run; see Tracer. Each
// tracer serves one run; a nil tracer is a no-op.
func WithTrace(t *Tracer) RunOption {
	return func(rc *runConfig) { rc.tracer = t }
}

// Log returns the recorded event log: the prefix recorded so far when
// called inside a WithProgress callback (the only place it is safe to call
// during a run), the whole run once RunContext has returned, and nil before
// the run has started. The log shares the tracer's storage, which only
// grows by append, so a prefix stays valid and unchanged while the run goes
// on and may be handed to other goroutines; it must not be modified. A
// sharded (Independent-channel) run records its events into the log only
// when it ends.
func (t *Tracer) Log() *trace.Log {
	if !t.bound || !t.inner.Bound() {
		return nil
	}
	return t.inner.Log()
}
