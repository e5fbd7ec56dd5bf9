// Package trace is the simulator's event-level observability layer,
// parallel to and independent of internal/telemetry: where telemetry
// answers "what did the run look like per epoch", trace answers "why did
// *this* request take this long". A Tracer records every request's
// lifecycle — arrival, marking into a batch, each DRAM command issued on
// its behalf (with the thread's rank at issue time), and data return —
// plus batch spans (formation with per-thread sizes and Marking-Cap clips,
// drain duration).
//
// Like the telemetry probe, a tracer is strictly passive: it only observes
// decisions the controller and scheduler already made, so attaching one
// cannot perturb the command stream (pinned by the golden equivalence
// tests in internal/sim), and every hot-path hook is gated on a nil check
// so an untraced run pays nothing (pinned by testing.AllocsPerRun).
//
// Two renderers sit on top of the recorded events: a compact JSONL event
// log with a versioned schema (jsonl.go, Schema) and Chrome trace-event
// JSON loadable in Perfetto or chrome://tracing (chrome.go). The analysis
// layer (internal/analysis) ingests the JSONL log through the Scanner
// (stream.go) into its wait decomposition, bottleneck reports, and the
// starvation audit that checks observed delays against the paper's
// Marking-Cap bound.
package trace

import (
	"unsafe"

	"repro/internal/dram"
)

// Schema identifies the JSONL event-log wire format. Bump the version
// suffix on any incompatible change; NewScanner rejects mismatched schemas.
const Schema = "parbs.trace/v1"

// DefaultMaxEvents bounds the buffered events when the caller does not
// choose (~48 MB of fixed-size records at the cap). Past it, new events
// are counted as dropped rather than recorded, so the prefix of the run
// stays complete and analyzable.
const DefaultMaxEvents = 1 << 20

// Kind discriminates lifecycle events.
type Kind uint8

// Lifecycle event kinds.
const (
	// KindArrive is a request entering the controller's buffer.
	KindArrive Kind = iota
	// KindMark is a request being marked into a batch (PAR-BS Rule 1).
	KindMark
	// KindCommand is one DRAM command issued on a request's behalf.
	KindCommand
	// KindComplete is a request's data burst finishing.
	KindComplete
	// KindBatch is a batch formation (size, per-thread shape, cap clips).
	KindBatch
	// KindBatchEnd is a batch draining (all marked requests serviced).
	KindBatchEnd
)

// Event is one fixed-size lifecycle record. Field meaning varies by Kind:
//
//	KindArrive:   Req=request ID, Thread, Bank, Row, Write, Cycle=arrival
//	KindMark:     Req=request ID, Thread, Row=batch index
//	KindCommand:  Req=request ID (-1 for controller-initiated refresh
//	              sequencing), Thread (-1 likewise), Cmd, Bank, Row,
//	              Rank=thread rank at issue (-1 when the policy has none)
//	KindComplete: Req=request ID, Thread, Row=latency (DRAM cycles),
//	              Cycle=data-return cycle
//	KindBatch:    Req=batch index, Row=batch size (marked requests),
//	              Rank=requests clipped by the Marking-Cap
//	KindBatchEnd: Req=batch index, Row=drain duration (DRAM cycles)
type Event struct {
	Cycle  int64
	Req    int64
	Row    int64
	Thread int32
	Bank   int32
	Rank   int32
	// Channel is the recording controller's channel index; 0 in
	// single-channel runs (and omitted from their JSONL, keeping them
	// byte-identical to the pre-multi-channel format).
	Channel int32
	Kind    Kind
	Cmd     uint8 // dram.Command ordinal, KindCommand only
	Write   bool
}

// Meta describes the traced run; the sim layer fills it at Bind time and
// it becomes the JSONL header line. The JSON tags serve the analysis
// layer's wire formats (parbs.analysis/v1 report and snapshot header) —
// the JSONL header itself is runLine, which flattens these fields.
type Meta struct {
	// Policy and Workload name the scheduler and mix.
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	// Cores and Banks give the system shape. Banks is per channel.
	Cores int `json:"cores"`
	Banks int `json:"banks"`
	// Channels is the independent-channel count of a sharded run; 0 or 1
	// means a single command stream (lock-step channels included).
	Channels int `json:"channels,omitempty"`
	// CPUPerDRAM is the clock ratio (cycles here are DRAM cycles).
	CPUPerDRAM int64 `json:"cpu_per_dram"`
	// WarmupDRAM and TotalDRAM delimit the run in DRAM cycles; the
	// measured window is [WarmupDRAM, TotalDRAM).
	WarmupDRAM int64 `json:"warmup_dram"`
	TotalDRAM  int64 `json:"total_dram"`
	// MarkingCap is the scheduler's configured Marking-Cap; 0 means
	// uncapped or a policy without batching.
	MarkingCap int `json:"marking_cap"`
	// ReadBufEntries is the controller's request-buffer capacity — together
	// with MarkingCap it yields the paper's batch-wait bound (Section 4.3).
	ReadBufEntries int `json:"read_buf"`
}

// Shape bounds of any run: parbs.System.Validate refuses a system beyond
// them before allocating it, and the analysis parsers refuse a run header
// beyond them, since every analysis window holds one column per core and
// one per bank. The paper's largest system is 16 cores on 4 channels of 8
// banks.
const (
	MaxCores = 1024
	MaxBanks = 4096 // channels × banks per channel
)

// Config sizes a Tracer. The zero value selects the defaults.
type Config struct {
	// MaxEvents caps buffered events (default DefaultMaxEvents); beyond it
	// new events are dropped and counted.
	MaxEvents int
}

// Tracer records one run's lifecycle events. Construct with NewTracer,
// attach through the simulation configuration; the controller and
// scheduler feed it through the hooks below. Not safe for concurrent use —
// the simulation is single-threaded per run.
type Tracer struct {
	cfg     Config
	meta    Meta
	bound   bool
	events  []Event
	dropped int64
	// batchPT holds each batch's per-thread marked counts, in
	// batch-formation event order (parallel to the KindBatch events).
	batchPT [][]int32
	// channel is stamped onto every recorded event; non-zero only for
	// shard tracers (NewShard).
	channel int32
}

// NewTracer returns an unbound tracer with the given configuration.
func NewTracer(cfg Config) *Tracer {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &Tracer{cfg: cfg}
}

// Bind stamps the run's metadata and resets recorded state. The sim layer
// calls it once per run, before the first cycle.
func (t *Tracer) Bind(meta Meta) {
	t.meta = meta
	t.bound = true
	t.events = t.events[:0]
	t.batchPT = t.batchPT[:0]
	t.dropped = 0
}

// Bound reports whether the tracer has been bound to a run (run metadata
// is only trustworthy afterwards).
func (t *Tracer) Bound() bool { return t.bound }

// Meta returns the bound run metadata.
func (t *Tracer) Meta() Meta { return t.meta }

// Events returns the number of recorded events.
func (t *Tracer) Events() int { return len(t.events) }

// Dropped returns how many events were discarded after the buffer filled.
func (t *Tracer) Dropped() int64 { return t.dropped }

// record appends an event, honoring the buffer cap.
func (t *Tracer) record(ev Event) {
	if len(t.events) >= t.cfg.MaxEvents {
		t.dropped++
		return
	}
	ev.Channel = t.channel
	t.events = append(t.events, ev)
}

// NewShard derives a tracer for one channel of a sharded run: same buffer
// cap, every recorded event stamped with the channel index. Shard tracers
// are fed by their own channel's controller and scheduler only and are
// folded back into the parent with MergeShards after the run.
func (t *Tracer) NewShard(channel int) *Tracer {
	return &Tracer{cfg: t.cfg, bound: true, channel: int32(channel)}
}

// RequestArrived records a request entering the controller's buffer.
func (t *Tracer) RequestArrived(id int64, thread, bank int, row int64, isWrite bool, now int64) {
	t.record(Event{Kind: KindArrive, Cycle: now, Req: id,
		Thread: int32(thread), Bank: int32(bank), Row: row, Write: isWrite})
}

// RequestMarked records a request being marked into batch. It implements
// part of the scheduler lifecycle observer (see core.LifecycleObserver).
func (t *Tracer) RequestMarked(id int64, thread int, batch int64, now int64) {
	t.record(Event{Kind: KindMark, Cycle: now, Req: id,
		Thread: int32(thread), Row: batch})
}

// CommandIssued records one DRAM command issued on a request's behalf.
// id and thread are -1 for controller-initiated commands (refresh
// sequencing); rank is the issuing thread's rank position at issue time,
// or -1 when the attached policy has no ranking.
func (t *Tracer) CommandIssued(id int64, thread int, cmd dram.Command, bank int, row int64, rank int, now int64) {
	t.record(Event{Kind: KindCommand, Cycle: now, Req: id,
		Thread: int32(thread), Bank: int32(bank), Row: row,
		Rank: int32(rank), Cmd: uint8(cmd)})
}

// RequestCompleted records a request's data burst finishing at cycle end,
// latency DRAM cycles after its arrival.
func (t *Tracer) RequestCompleted(id int64, thread int, end, latency int64) {
	t.record(Event{Kind: KindComplete, Cycle: end, Req: id,
		Thread: int32(thread), Row: latency})
}

// BatchFormedDetail records a batch formation: its index, total marked
// size, per-thread marked counts, and how many requests the Marking-Cap
// clipped out of it. The perThread slice is copied.
func (t *Tracer) BatchFormedDetail(batch int64, now int64, size int, perThread []int, clipped int) {
	if len(t.events) >= t.cfg.MaxEvents {
		t.dropped++
		return
	}
	pt := make([]int32, len(perThread))
	for i, n := range perThread {
		pt[i] = int32(n)
	}
	t.batchPT = append(t.batchPT, pt)
	t.events = append(t.events, Event{Kind: KindBatch, Cycle: now, Req: batch,
		Row: int64(size), Rank: int32(clipped), Channel: t.channel})
}

// BatchDrained records a batch completing: every marked request serviced,
// duration DRAM cycles after formation.
func (t *Tracer) BatchDrained(batch int64, now int64, duration int64) {
	t.record(Event{Kind: KindBatchEnd, Cycle: now, Req: batch, Row: duration})
}

// Log snapshots the recorded run as an immutable event log, the common
// input of the renderers. The log shares the tracer's storage, which only
// grows by append (MergeShards replaces it whole), so a log taken
// mid-run is a prefix of every later one and stays unchanged while the
// run goes on.
func (t *Tracer) Log() *Log {
	return &Log{Meta: t.meta, Dropped: t.dropped, Events: t.events, BatchPerThread: t.batchPT}
}

// Log is one run's recorded event stream: metadata, the events in
// simulation processing order, and each batch's per-thread marked counts
// (in KindBatch event order). Produced by Tracer.Log.
type Log struct {
	Meta    Meta
	Dropped int64
	Events  []Event
	// BatchPerThread holds per-thread marked counts for the i-th KindBatch
	// event in Events.
	BatchPerThread [][]int32
}

// Clone returns a copy of the log whose event and batch slices are exactly
// as long as their contents, so a retained log holds no append slack. The
// per-thread batch counts are immutable and shared.
func (l *Log) Clone() *Log {
	c := *l
	c.Events = append(make([]Event, 0, len(l.Events)), l.Events...)
	c.BatchPerThread = append(make([][]int32, 0, len(l.BatchPerThread)), l.BatchPerThread...)
	return &c
}

// Bytes returns the memory the log holds, counted by capacity: what
// retaining it costs. A nil log holds nothing.
func (l *Log) Bytes() int64 {
	if l == nil {
		return 0
	}
	n := int64(unsafe.Sizeof(*l)) + int64(len(l.Meta.Policy)+len(l.Meta.Workload)) +
		int64(unsafe.Sizeof(Event{}))*int64(cap(l.Events)) +
		int64(unsafe.Sizeof([]int32(nil)))*int64(cap(l.BatchPerThread))
	for _, pt := range l.BatchPerThread {
		n += 4 * int64(cap(pt))
	}
	return n
}
