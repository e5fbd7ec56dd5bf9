package analysis

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// The starvation audit checks the paper's §4.3 starvation-freedom argument
// against observation: under batching with Marking-Cap C and a request
// buffer of R entries per bank, a newly arrived request is marked no later
// than the next batch formation and a thread can have at most ceil(R/C)-1
// older batches' worth of same-bank requests ahead of it, so no request is
// passed over by more than ceil(R/C)-1 batch formations before being
// marked. The audit verifies that structural form of the bound — the most
// batch formations any completed read sat through between arriving and
// being marked — and derives an empirical cycle envelope from the observed
// worst batch span.
//
// Batch formations are counted per channel: each independent channel's
// PAR-BS forms its own batches, so a request is charged only the
// formations of the channel it arrived on (its arrive event's channel;
// mark events carry none, and request IDs are globally unique). Lock-step
// runs record everything on channel 0.

// ThreadAudit is one thread's worst case over its completed reads (writes
// are fire-and-forget and excluded).
type ThreadAudit struct {
	Thread int
	Reads  int64
	// MaxLatency is the worst arrival→return latency in DRAM cycles;
	// MaxLatencyReq its request.
	MaxLatency    int64
	MaxLatencyReq int64
	// MaxBatchesWaited is the most batch formations any one of the
	// thread's reads observed between arriving and being marked.
	MaxBatchesWaited int64
}

// Verdict is the starvation audit's verdict.
type Verdict struct {
	// Batched reports whether the traced policy formed batches at all.
	// When false, the policy provides no delay bound and Holds is false.
	Batched    bool
	MarkingCap int
	ReadBuf    int
	// BatchWaitBound is ceil(ReadBuf/MarkingCap)-1: the §4.3 bound on how
	// many batch formations can pass a buffered request over before it is
	// marked. -1 when inapplicable (no cap, or unbatched policy).
	BatchWaitBound int64
	// MaxBatchesWaited is the observed worst case across all reads.
	MaxBatchesWaited int64
	// BatchWaitOK reports MaxBatchesWaited <= BatchWaitBound.
	BatchWaitOK bool
	// DelayBoundCycles is the empirical cycle envelope implied by the
	// batch-wait bound and the worst observed batch span:
	// (BatchWaitBound+2) * MaxBatchSpan — the +2 covers the residual of
	// the batch in flight at arrival plus the request's own batch's
	// drain. -1 when inapplicable.
	DelayBoundCycles int64
	// MaxDelayCycles is the worst observed read latency, with the
	// offending thread and request alongside (both -1 when no read
	// completed).
	MaxDelayCycles int64
	MaxDelayThread int
	MaxDelayReq    int64
	// DelayOK reports MaxDelayCycles <= DelayBoundCycles.
	DelayOK bool
	// Holds is the overall verdict: batched, bound applicable, and both
	// checks passed.
	Holds bool
}

// Audit is the starvation audit of one store — `parbs-trace analyze`'s
// output. Field names are its JSON keys.
type Audit struct {
	Meta trace.Meta
	// Truncated, IngestTruncated and Dropped mirror the store: the audit
	// then covers the recorded prefix, and its observed maxima are lower
	// bounds.
	Truncated       bool
	IngestTruncated bool
	Dropped         int64
	// Requests counts the completed reads audited; Batches the batch
	// formations on all channels; MaxBatchSpan the longest
	// formation→drain duration (0 when drains are untraced).
	Requests     int64
	Batches      int64
	MaxBatchSpan int64
	Threads      []ThreadAudit
	// Verdict keeps the JSON key the audit has always had.
	Verdict Verdict `json:"Audit"`
}

// Audit runs the starvation audit. One pass over the event columns; the
// scan relies on the stream's faithful interleaving of arrivals, marks and
// batch formations (the controller emits arrival before the policy can
// mark, and batch events sit at their true position), so batches-waited
// counts are exact.
func (s *Store) Audit() *Audit {
	a := &Audit{Meta: s.meta, Truncated: s.truncated,
		IngestTruncated: s.ingestTruncated, Dropped: s.dropped}
	v := &a.Verdict
	v.MaxDelayThread, v.MaxDelayReq = -1, -1

	type pending struct {
		channel      int32
		arrivalBatch int64 // formations on the channel before arrival
		waited       int64 // formations passed over; -1 until marked
		write        bool
	}
	live := make(map[int64]pending)
	formed := make(map[int32]int64)
	threads := make(map[int32]*ThreadAudit)
	for i, k := range s.kind {
		switch trace.Kind(k) {
		case trace.KindArrive:
			ch := s.channel[i]
			live[s.req[i]] = pending{channel: ch, arrivalBatch: formed[ch], waited: -1, write: s.write[i]}
		case trace.KindMark:
			if r, ok := live[s.req[i]]; ok && r.waited < 0 {
				r.waited = formed[r.channel] - r.arrivalBatch
				live[s.req[i]] = r
			}
		case trace.KindBatch:
			formed[s.channel[i]]++
			a.Batches++
		case trace.KindBatchEnd:
			a.MaxBatchSpan = max(a.MaxBatchSpan, s.row[i])
		case trace.KindComplete:
			r, ok := live[s.req[i]]
			if !ok {
				continue // pre-trace arrival
			}
			delete(live, s.req[i])
			if r.write {
				continue
			}
			t := threads[s.thread[i]]
			if t == nil {
				t = &ThreadAudit{Thread: int(s.thread[i])}
				threads[s.thread[i]] = t
			}
			t.Reads++
			a.Requests++
			if lat := s.row[i]; lat > t.MaxLatency {
				t.MaxLatency, t.MaxLatencyReq = lat, s.req[i]
				// The run's worst is some thread's worst, so it can only
				// move when a thread's does.
				if lat > v.MaxDelayCycles {
					v.MaxDelayCycles, v.MaxDelayThread, v.MaxDelayReq = lat, t.Thread, s.req[i]
				}
			}
			t.MaxBatchesWaited = max(t.MaxBatchesWaited, r.waited)
			v.MaxBatchesWaited = max(v.MaxBatchesWaited, r.waited)
		}
	}
	for _, t := range threads {
		a.Threads = append(a.Threads, *t)
	}
	sort.Slice(a.Threads, func(i, j int) bool { return a.Threads[i].Thread < a.Threads[j].Thread })

	v.MarkingCap = s.meta.MarkingCap
	v.ReadBuf = s.meta.ReadBufEntries
	v.Batched = a.Batches > 0
	v.BatchWaitBound = -1
	v.DelayBoundCycles = -1
	if v.Batched && v.MarkingCap > 0 && v.ReadBuf > 0 {
		// ceil(ReadBuf/Cap)-1: even the newest of a full buffer of
		// same-thread same-bank requests is passed over by at most that
		// many batch formations before being marked (§4.3).
		v.BatchWaitBound = int64((v.ReadBuf+v.MarkingCap-1)/v.MarkingCap) - 1
		v.BatchWaitOK = v.MaxBatchesWaited <= v.BatchWaitBound
		if a.MaxBatchSpan > 0 {
			v.DelayBoundCycles = (v.BatchWaitBound + 2) * a.MaxBatchSpan
			v.DelayOK = v.MaxDelayCycles <= v.DelayBoundCycles
			v.Holds = v.BatchWaitOK && v.DelayOK
		} else {
			// Drain spans untraced (static batching): only the structural
			// bound is checkable.
			v.Holds = v.BatchWaitOK
		}
	}
	return a
}

// WriteText renders the audit for humans. The final line is "starvation
// audit: PASS" or "starvation audit: FAIL ..." — greppable by the
// trace-smoke script.
func (a *Audit) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	writeRunLine(p, a.Meta)
	writeTruncationNotes(p, a.Dropped, a.IngestTruncated)
	p("requests audited: %d completed reads; batches formed: %d", a.Requests, a.Batches)
	if a.MaxBatchSpan > 0 {
		p(" (max span %d cycles)", a.MaxBatchSpan)
	}
	p("\n\nper-thread worst case (completed reads, DRAM cycles):\n")
	p("  thread    reads   max_lat  max_req  batches_waited\n")
	for _, t := range a.Threads {
		p("  %6d %8d %9d %8d %15d\n", t.Thread, t.Reads, t.MaxLatency, t.MaxLatencyReq, t.MaxBatchesWaited)
	}
	p("\n")
	v := &a.Verdict
	switch {
	case !v.Batched:
		p("starvation audit: policy %q formed no batches — it provides no Marking-Cap\n", a.Meta.Policy)
		p("delay bound; worst observed delay %d cycles (thread %d, request %d) is unbounded by design.\n",
			v.MaxDelayCycles, v.MaxDelayThread, v.MaxDelayReq)
		p("starvation audit: FAIL (no bound to audit)\n")
	case v.BatchWaitBound < 0:
		p("starvation audit: batching active but Marking-Cap is uncapped; no finite bound to audit.\n")
		p("starvation audit: FAIL (no bound to audit)\n")
	default:
		p("starvation audit (Marking-Cap bound, paper §4.3):\n")
		p("  batch-wait bound   ceil(%d/%d)-1 = %d batch formations\n", v.ReadBuf, v.MarkingCap, v.BatchWaitBound)
		p("  observed worst     %d batch formations  [%s]\n", v.MaxBatchesWaited, okViolated(v.BatchWaitOK))
		if v.DelayBoundCycles >= 0 {
			p("  delay envelope     (bound+2) x max batch span = %d cycles\n", v.DelayBoundCycles)
			p("  observed worst     %d cycles (thread %d, request %d)  [%s]\n",
				v.MaxDelayCycles, v.MaxDelayThread, v.MaxDelayReq, okViolated(v.DelayOK))
		}
		if v.Holds {
			p("starvation audit: PASS\n")
		} else {
			p("starvation audit: FAIL\n")
		}
	}
	return err
}

func okViolated(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}
