package analysis

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Windowed aggregation. The run's cycle span [0, end) is divided into
// fixed-width windows; every aggregate below is a per-window series, so
// "which bank stalled batch formation in cycles 40k–60k" is a range query
// over precomputed columns instead of a Perfetto session.
//
// Wait attribution splits each request's latency into three phases —
// unmarked-queued (arrival → marked into a batch, or first command for
// policies that never mark), marked-waiting (mark → first command) and
// service (first command → data return) — spread over windows by exact
// cycle overlap: a request that waited from cycle 900 to 1300 with
// 1000-cycle windows contributes 100 cycles to window 0 and 300 to window
// 1. A request serviced before its mark (swept into a batch mid-flight)
// spent its whole pre-command wait unmarked. Requests still in flight when
// the log ends contribute their wait up to the end of the span — a
// starving request that never completed is precisely the one a bottleneck
// query must not drop.

// Default shape of an analysis when Options leaves the fields zero.
const (
	DefaultWindows = 32
	DefaultTopK    = 5
	// maxWindows caps the window count so a tiny requested width on a long
	// run cannot explode the report; the width is raised to fit. maxCells
	// caps windows × (bank + thread columns) the same way, so the widest
	// shape checkShape admits still yields a bounded report.
	maxWindows = 4096
	maxCells   = 1 << 19
)

// Options shapes Analyze's aggregation.
type Options struct {
	// WindowCycles is the window width in DRAM cycles; 0 divides the run
	// span into DefaultWindows equal windows.
	WindowCycles int64
	// TopK bounds the per-window and overall bottleneck rankings
	// (default DefaultTopK).
	TopK int
}

// Contribution is one ranked entry of a bottleneck attribution: an entity
// (bank or thread) and the wait cycles it accounts for.
type Contribution struct {
	// ID is the global bank index (channel*banks+bank) or the thread index.
	ID int `json:"id"`
	// Label is the human form ("b3", "ch1:b2", "t0").
	Label string `json:"label"`
	// Cycles is the attributed wait in DRAM cycles.
	Cycles int64 `json:"cycles"`
}

// BankWindow is one bank's activity inside one window.
type BankWindow struct {
	// Commands counts DRAM commands issued to the bank.
	Commands int64 `json:"commands"`
	// QueueDepth is the time-averaged count of buffered requests targeting
	// the bank (arrival to data return).
	QueueDepth float64 `json:"queue_depth"`
	// Wait is the queued wait (unmarked + marked phases) contributed by
	// requests targeting the bank, in cycles overlapping this window.
	Wait int64 `json:"wait"`
	// LatencyPct holds exact nearest-rank percentiles of the latencies of
	// reads to this bank that completed in this window.
	LatencyPct Percentiles `json:"latency_pct"`
}

// ThreadWindow is one thread's wait decomposition inside one window.
type ThreadWindow struct {
	Unmarked int64 `json:"unmarked"`
	Marked   int64 `json:"marked"`
	Service  int64 `json:"service"`
	// Completions counts reads whose data returned in this window.
	Completions int64 `json:"completions"`
	// LatencyPct holds exact percentiles of the latencies of this thread's
	// reads that completed in this window.
	LatencyPct Percentiles `json:"latency_pct"`
}

// Window is one time slice's aggregates.
type Window struct {
	Index int `json:"index"`
	// [Start, End) in DRAM cycles; the last window may be short.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Commands and BusyCycles summarize command-bus occupancy: commands
	// issued, and cycles on which at least one channel issued.
	Commands   int64 `json:"commands"`
	BusyCycles int64 `json:"busy_cycles"`
	Arrivals   int64 `json:"arrivals"`
	// Completions counts read data returns.
	Completions    int64 `json:"completions"`
	BatchesFormed  int64 `json:"batches_formed"`
	BatchesDrained int64 `json:"batches_drained"`
	// Banks is indexed by global bank (channel*banks + bank); Channels by
	// channel (commands per channel); Threads by thread.
	Banks    []BankWindow   `json:"banks"`
	Channels []int64        `json:"channels,omitempty"`
	Threads  []ThreadWindow `json:"threads"`
	// TopBanks and TopThreads rank this window's wait contributors.
	TopBanks   []Contribution `json:"top_banks"`
	TopThreads []Contribution `json:"top_threads"`
	// LatencyPct holds exact percentiles of all read latencies completing
	// in this window.
	LatencyPct Percentiles `json:"latency_pct"`
}

// BankTotals is one bank's whole-span rollup.
type BankTotals struct {
	Bank    int    `json:"bank"`    // global index
	Channel int    `json:"channel"` // channel the bank lives on
	Label   string `json:"label"`
	// Commands, Wait, and QueueDepth as in BankWindow, over the full span.
	Commands   int64   `json:"commands"`
	Wait       int64   `json:"wait"`
	QueueDepth float64 `json:"queue_depth"`
	// LatencyPct and WaitPct hold exact whole-span percentiles of this
	// bank's completed-read latencies and queued waits.
	LatencyPct Percentiles `json:"latency_pct"`
	WaitPct    Percentiles `json:"wait_pct"`
}

// ThreadTotals is one thread's whole-span rollup.
type ThreadTotals struct {
	Thread int `json:"thread"`
	// Reads counts completed reads; InFlight reads that never returned
	// inside the log (their wait up to the span end is still attributed).
	Reads    int64 `json:"reads"`
	InFlight int64 `json:"in_flight"`
	Unmarked int64 `json:"unmarked"`
	Marked   int64 `json:"marked"`
	Service  int64 `json:"service"`
	// Wait is Unmarked+Marked — the attribution ranking signal.
	Wait int64 `json:"wait"`
	// LatencyPct and WaitPct hold exact whole-span percentiles of this
	// thread's completed-read latencies and queued waits (arrival to first
	// command). In-flight requests are excluded — a percentile over
	// unfinished samples would be a lower bound masquerading as a fact.
	LatencyPct Percentiles `json:"latency_pct"`
	WaitPct    Percentiles `json:"wait_pct"`
}

// BatchSpan is one batch's formation/drain timeline entry.
type BatchSpan struct {
	Batch   int64 `json:"batch"`
	Channel int32 `json:"channel,omitempty"`
	Formed  int64 `json:"formed"`
	// Drained is the drain cycle, -1 when the log ends first.
	Drained int64 `json:"drained"`
	Size    int64 `json:"size"`
	Clipped int32 `json:"clipped"`
}

// Report is the windowed analysis of one store — the typed query API's
// root object and the wire form of GET /v1/analysis/{id}/report.
type Report struct {
	Schema    string     `json:"schema"`
	Meta      trace.Meta `json:"meta"`
	Truncated bool       `json:"truncated"`
	// IngestTruncated distinguishes damage found while reading the stream
	// (torn tail, malformed line) from record-time buffer drops, which are
	// reported via Dropped. Either condition sets Truncated.
	IngestTruncated bool  `json:"ingest_truncated"`
	Dropped         int64 `json:"dropped"`
	Events          int   `json:"events"`
	// SpanEnd is the analyzed span's exclusive end ([0, SpanEnd)).
	SpanEnd      int64 `json:"span_end"`
	WindowCycles int64 `json:"window_cycles"`
	// Requests counts completed reads; InFlight requests open at span end.
	Requests int64 `json:"requests"`
	InFlight int64 `json:"in_flight"`

	Windows []Window       `json:"windows"`
	Banks   []BankTotals   `json:"banks"`
	Threads []ThreadTotals `json:"threads"`
	Batches []BatchSpan    `json:"batches"`
	// TopBanks and TopThreads are the whole-span bottleneck attribution.
	TopBanks   []Contribution `json:"top_banks"`
	TopThreads []Contribution `json:"top_threads"`
	// LatencyPct holds exact whole-span percentiles over every completed
	// read's latency.
	LatencyPct Percentiles `json:"latency_pct"`

	topK int
}

// reqOpen tracks one in-flight request during the scan.
type reqOpen struct {
	arrival  int64
	marked   int64 // -1 until marked
	firstCmd int64 // -1 until a command issues
	bank     int32 // global bank index
	thread   int32
	write    bool
}

// Analyze folds the store into a windowed report.
func (s *Store) Analyze(opt Options) *Report {
	channels := s.meta.Channels
	if channels < 1 {
		channels = 1
	}
	banksPer := s.meta.Banks
	if banksPer < 1 {
		banksPer = 1
	}
	threads := s.meta.Cores
	if threads < 1 {
		threads = 1
	}

	end := s.meta.TotalDRAM
	for _, c := range s.cycle {
		if c >= end {
			end = c + 1
		}
	}
	if end < 1 {
		end = 1
	}
	width := opt.WindowCycles
	if width <= 0 {
		width = (end + DefaultWindows - 1) / DefaultWindows
	}
	if width < 1 {
		width = 1
	}
	nBanks := channels * banksPer
	limit := int64(max(min(maxWindows, maxCells/(nBanks+threads)), 1))
	if n := (end + width - 1) / width; n > limit {
		width = (end + limit - 1) / limit
	}
	nWin := int((end + width - 1) / width)
	topK := opt.TopK
	if topK <= 0 {
		topK = DefaultTopK
	}

	r := &Report{
		Schema: Schema, Meta: s.meta, Truncated: s.truncated,
		IngestTruncated: s.ingestTruncated, Dropped: s.dropped,
		Events: len(s.kind), SpanEnd: end, WindowCycles: width, topK: topK,
		Windows: make([]Window, nWin),
	}
	for w := range r.Windows {
		win := &r.Windows[w]
		win.Index = w
		win.Start = int64(w) * width
		win.End = min(win.Start+width, end)
		win.Banks = make([]BankWindow, nBanks)
		win.Threads = make([]ThreadWindow, threads)
		if channels > 1 {
			win.Channels = make([]int64, channels)
		}
	}
	winOf := func(c int64) int {
		if c < 0 {
			return 0
		}
		if w := int(c / width); w < nWin {
			return w
		}
		return nWin - 1
	}
	// spread distributes [a,b) across windows by exact overlap.
	spread := func(a, b int64, add func(w int, amt int64)) {
		if b > end {
			b = end
		}
		if a < 0 {
			a = 0
		}
		for a < b {
			w := winOf(a)
			stop := min(r.Windows[w].End, b)
			add(w, stop-a)
			a = stop
		}
	}

	bankOf := func(channel, bank int32) int32 {
		g := channel*int32(banksPer) + bank
		if g < 0 || g >= int32(nBanks) {
			return 0
		}
		return g
	}
	threadOK := func(t int32) bool { return t >= 0 && int(t) < threads }

	// Pass 1: command/arrival/batch counters straight into windows; request
	// lifecycles collected for the attribution pass.
	open := make(map[int64]*reqOpen)
	type closedReq struct {
		reqOpen
		completed int64
	}
	var finished []closedReq
	var lastBusy int64 = -1
	drainedAt := make(map[[2]int64]int64)
	var spans []BatchSpan
	for i := range s.kind {
		cyc := s.cycle[i]
		w := winOf(cyc)
		win := &r.Windows[w]
		switch trace.Kind(s.kind[i]) {
		case trace.KindArrive:
			win.Arrivals++
			open[s.req[i]] = &reqOpen{arrival: cyc, marked: -1, firstCmd: -1,
				bank: bankOf(s.channel[i], s.bank[i]), thread: s.thread[i], write: s.write[i]}
		case trace.KindMark:
			if q := open[s.req[i]]; q != nil && q.marked < 0 {
				q.marked = cyc
			}
		case trace.KindCommand:
			win.Commands++
			win.Banks[bankOf(s.channel[i], s.bank[i])].Commands++
			if win.Channels != nil {
				ch := s.channel[i]
				if ch >= 0 && int(ch) < len(win.Channels) {
					win.Channels[ch]++
				}
			}
			if cyc != lastBusy {
				win.BusyCycles++
				lastBusy = cyc
			}
			if q := open[s.req[i]]; q != nil && q.firstCmd < 0 {
				q.firstCmd = cyc
			}
		case trace.KindComplete:
			q := open[s.req[i]]
			if q == nil {
				continue // pre-trace arrival
			}
			delete(open, s.req[i])
			if !q.write {
				win.Completions++
				if threadOK(q.thread) {
					win.Threads[q.thread].Completions++
				}
			}
			finished = append(finished, closedReq{reqOpen: *q, completed: cyc})
		case trace.KindBatch:
			win.BatchesFormed++
			spans = append(spans, BatchSpan{Batch: s.req[i], Channel: s.channel[i],
				Formed: cyc, Drained: -1, Size: s.row[i], Clipped: s.rank[i]})
		case trace.KindBatchEnd:
			win.BatchesDrained++
			drainedAt[[2]int64{int64(s.channel[i]), s.req[i]}] = cyc
		}
	}
	for i := range spans {
		if d, ok := drainedAt[[2]int64{int64(spans[i].Channel), spans[i].Batch}]; ok {
			spans[i].Drained = d
		}
	}
	r.Batches = spans

	// Pass 2: attribution. Each request's phases spread over windows, onto
	// its thread and its bank.
	r.Banks = make([]BankTotals, nBanks)
	for b := range r.Banks {
		r.Banks[b] = BankTotals{Bank: b, Channel: b / banksPer, Label: bankLabel(b, banksPer, channels)}
	}
	r.Threads = make([]ThreadTotals, threads)
	for t := range r.Threads {
		r.Threads[t].Thread = t
	}
	samples := newSampleSet(nWin, threads, nBanks)
	attribute := func(q *reqOpen, completed int64, live bool) {
		// Queue residency (all requests, writes included): arrival → return.
		spread(q.arrival, completed, func(w int, amt int64) {
			r.Windows[w].Banks[q.bank].QueueDepth += float64(amt)
		})
		if q.write || !threadOK(q.thread) {
			return
		}
		tt := &r.Threads[q.thread]
		if live {
			tt.InFlight++
		} else {
			tt.Reads++
			r.Requests++
		}
		markEnd := q.firstCmd
		if markEnd < 0 {
			markEnd = completed
		}
		if !live {
			// Percentile samples: completed reads only. Latency is arrival →
			// data return; wait is the queued portion (arrival → first
			// command); the window is the one the read completed in.
			samples.add(q.thread, q.bank, winOf(completed),
				completed-q.arrival, markEnd-q.arrival)
		}
		unmarkedEnd := markEnd
		if q.marked >= 0 && markEnd >= q.marked {
			unmarkedEnd = q.marked
			spread(q.marked, markEnd, func(w int, amt int64) {
				r.Windows[w].Threads[q.thread].Marked += amt
				r.Windows[w].Banks[q.bank].Wait += amt
				tt.Marked += amt
				r.Banks[q.bank].Wait += amt
			})
		}
		spread(q.arrival, unmarkedEnd, func(w int, amt int64) {
			r.Windows[w].Threads[q.thread].Unmarked += amt
			r.Windows[w].Banks[q.bank].Wait += amt
			tt.Unmarked += amt
			r.Banks[q.bank].Wait += amt
		})
		if !live {
			spread(markEnd, completed, func(w int, amt int64) {
				r.Windows[w].Threads[q.thread].Service += amt
				tt.Service += amt
			})
		}
	}
	for i := range finished {
		attribute(&finished[i].reqOpen, finished[i].completed, false)
	}
	r.InFlight = int64(len(open))
	for _, q := range open {
		attribute(q, end, true)
	}

	// Normalize queue depths to time averages and roll totals up.
	for w := range r.Windows {
		win := &r.Windows[w]
		span := float64(win.End - win.Start)
		if span <= 0 {
			span = 1
		}
		for b := range win.Banks {
			r.Banks[b].Commands += win.Banks[b].Commands
			r.Banks[b].QueueDepth += win.Banks[b].QueueDepth // still cycle-sums
			win.Banks[b].QueueDepth /= span
		}
		win.TopBanks = topBanks(win.Banks, topK, banksPer, channels)
		win.TopThreads = topThreads(win.Threads, topK)
	}
	for b := range r.Banks {
		r.Banks[b].QueueDepth /= float64(end)
	}
	for t := range r.Threads {
		r.Threads[t].Wait = r.Threads[t].Unmarked + r.Threads[t].Marked
	}

	bt := make([]BankWindow, nBanks)
	for b := range r.Banks {
		bt[b] = BankWindow{Wait: r.Banks[b].Wait}
	}
	r.TopBanks = topBanks(bt, topK, banksPer, channels)
	tw := make([]ThreadWindow, threads)
	for t := range r.Threads {
		tw[t] = ThreadWindow{Unmarked: r.Threads[t].Unmarked, Marked: r.Threads[t].Marked}
	}
	r.TopThreads = topThreads(tw, topK)

	// Percentile columns, exact nearest-rank over the collected samples.
	r.LatencyPct = percentilesOf(samples.all)
	for t := range r.Threads {
		r.Threads[t].LatencyPct = percentilesOf(samples.thrLat[t])
		r.Threads[t].WaitPct = percentilesOf(samples.thrWait[t])
	}
	for b := range r.Banks {
		r.Banks[b].LatencyPct = percentilesOf(samples.bankLat[b])
		r.Banks[b].WaitPct = percentilesOf(samples.bankWait[b])
	}
	for w := range r.Windows {
		win := &r.Windows[w]
		win.LatencyPct = percentilesOf(samples.winLat[w])
		for t := range win.Threads {
			win.Threads[t].LatencyPct = percentilesOf(samples.winThrLat[w*threads+t])
		}
		for b := range win.Banks {
			win.Banks[b].LatencyPct = percentilesOf(samples.winBankLat[w*nBanks+b])
		}
	}
	return r
}

// bankLabel renders a global bank index ("b3", or "ch1:b2" on multi-channel
// systems).
func bankLabel(global, banksPer, channels int) string {
	if channels <= 1 {
		return fmt.Sprintf("b%d", global)
	}
	return fmt.Sprintf("ch%d:b%d", global/banksPer, global%banksPer)
}

// topBanks ranks banks by contributed wait, descending, dropping zeros.
func topBanks(banks []BankWindow, k, banksPer, channels int) []Contribution {
	out := make([]Contribution, 0, len(banks))
	for b := range banks {
		if banks[b].Wait > 0 {
			out = append(out, Contribution{ID: b, Label: bankLabel(b, banksPer, channels), Cycles: banks[b].Wait})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// topThreads ranks threads by queued wait (unmarked+marked), descending.
func topThreads(threads []ThreadWindow, k int) []Contribution {
	out := make([]Contribution, 0, len(threads))
	for t := range threads {
		if w := threads[t].Unmarked + threads[t].Marked; w > 0 {
			out = append(out, Contribution{ID: t, Label: fmt.Sprintf("t%d", t), Cycles: w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// RangeTopBanks ranks banks by wait contributed inside [from, to) cycles.
// Windows partially covered by the range contribute proportionally to the
// overlap (the aggregates are window-resolution).
func (r *Report) RangeTopBanks(from, to int64, k int) []Contribution {
	banksPer := max(r.Meta.Banks, 1)
	channels := max(r.Meta.Channels, 1)
	acc := make([]BankWindow, channels*banksPer)
	r.rangeAccumulate(from, to, func(win *Window, frac float64) {
		for b := range win.Banks {
			acc[b].Wait += int64(float64(win.Banks[b].Wait) * frac)
		}
	})
	if k <= 0 {
		k = r.topK
	}
	return topBanks(acc, k, banksPer, channels)
}

// RangeTopThreads ranks threads by queued wait inside [from, to) cycles.
func (r *Report) RangeTopThreads(from, to int64, k int) []Contribution {
	acc := make([]ThreadWindow, max(r.Meta.Cores, 1))
	r.rangeAccumulate(from, to, func(win *Window, frac float64) {
		for t := range win.Threads {
			acc[t].Unmarked += int64(float64(win.Threads[t].Unmarked) * frac)
			acc[t].Marked += int64(float64(win.Threads[t].Marked) * frac)
		}
	})
	if k <= 0 {
		k = r.topK
	}
	return topThreads(acc, k)
}

// rangeAccumulate visits every window overlapping [from, to) with its
// overlap fraction.
func (r *Report) rangeAccumulate(from, to int64, visit func(win *Window, frac float64)) {
	if from < 0 {
		from = 0
	}
	if to <= 0 || to > r.SpanEnd {
		to = r.SpanEnd
	}
	for w := range r.Windows {
		win := &r.Windows[w]
		lo, hi := max(win.Start, from), min(win.End, to)
		if hi <= lo {
			continue
		}
		visit(win, float64(hi-lo)/float64(win.End-win.Start))
	}
}
