package analysis

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/trace"
)

// fixtureLog records a small two-thread, two-bank run with precisely
// placed phases so window aggregates can be checked against hand-derived
// values.
//
// Timeline (window width 100 in the tests, span [0, 1000)):
//
//	req 1 (t0, bank 0): arrives c0,  marked c50,  first cmd c150, done c250
//	                    → unmarked [0,50) marked [50,150) service [150,250)
//	req 2 (t1, bank 1): arrives c80, never marked, first cmd c480, done c530
//	                    → unmarked [80,480) service [480,530)
//	req 3 (t0, bank 0): a write — queue residency only, no wait attribution
//	req 4 (t1, bank 1): arrives c700, never serviced → in flight, unmarked
//	                    wait [700,1000) attributed to bank 1 / thread 1
func fixtureLog() *trace.Log {
	tr := trace.NewTracer(trace.Config{})
	tr.Bind(trace.Meta{Policy: "PAR-BS", Workload: "synthetic", Cores: 2, Banks: 2,
		MarkingCap: 5, ReadBufEntries: 64, TotalDRAM: 1000})
	tr.RequestArrived(1, 0, 0, 3, false, 0)
	tr.RequestMarked(1, 0, 0, 50)
	tr.BatchFormedDetail(0, 50, 1, []int{1, 0}, 0)
	tr.RequestArrived(2, 1, 1, 9, false, 80)
	tr.CommandIssued(1, 0, dram.CmdActivate, 0, 3, 0, 150)
	tr.CommandIssued(1, 0, dram.CmdRead, 0, 3, 0, 160)
	tr.RequestCompleted(1, 0, 250, 250)
	tr.BatchDrained(0, 250, 200)
	tr.RequestArrived(3, 0, 0, 4, true, 300)
	tr.RequestCompleted(3, 0, 400, 100) // write retires
	tr.CommandIssued(2, 1, dram.CmdActivate, 1, 9, -1, 480)
	tr.RequestCompleted(2, 1, 530, 450)
	tr.RequestArrived(4, 1, 1, 11, false, 700)
	return tr.Log()
}

func TestAnalyzeWindowedDecomposition(t *testing.T) {
	s := FromLog(fixtureLog())
	r := s.Analyze(Options{WindowCycles: 100, TopK: 3})

	if len(r.Windows) != 10 || r.SpanEnd != 1000 || r.WindowCycles != 100 {
		t.Fatalf("windows=%d span=%d width=%d, want 10/1000/100",
			len(r.Windows), r.SpanEnd, r.WindowCycles)
	}
	if r.Requests != 2 || r.InFlight != 1 {
		t.Fatalf("Requests=%d InFlight=%d, want 2/1", r.Requests, r.InFlight)
	}

	// Thread totals: t0 unmarked 50, marked 100, service 100.
	// t1: req 2 unmarked 400 + req 4 unmarked 300 = 700, service 50.
	t0, t1 := r.Threads[0], r.Threads[1]
	if t0.Reads != 1 || t0.Unmarked != 50 || t0.Marked != 100 || t0.Service != 100 || t0.Wait != 150 {
		t.Errorf("thread 0 totals wrong: %+v", t0)
	}
	if t1.Reads != 1 || t1.InFlight != 1 || t1.Unmarked != 700 || t1.Marked != 0 || t1.Service != 50 || t1.Wait != 700 {
		t.Errorf("thread 1 totals wrong: %+v", t1)
	}

	// Window 0 [0,100): t0 unmarked [0,50)=50 + marked [50,100)=50;
	// t1 unmarked [80,100)=20. Commands 0.
	w0 := r.Windows[0]
	if w0.Threads[0].Unmarked != 50 || w0.Threads[0].Marked != 50 || w0.Threads[1].Unmarked != 20 {
		t.Errorf("window 0 threads wrong: %+v", w0.Threads)
	}
	if w0.Arrivals != 2 || w0.BatchesFormed != 1 || w0.Commands != 0 {
		t.Errorf("window 0 counters wrong: %+v", w0)
	}
	// Window 1 [100,200): t0 marked [100,150)=50 + service [150,200)=50;
	// t1 unmarked 100. Two commands on bank 0, both busy cycles.
	w1 := r.Windows[1]
	if w1.Threads[0].Marked != 50 || w1.Threads[0].Service != 50 || w1.Threads[1].Unmarked != 100 {
		t.Errorf("window 1 threads wrong: %+v", w1.Threads)
	}
	if w1.Commands != 2 || w1.BusyCycles != 2 || w1.Banks[0].Commands != 2 {
		t.Errorf("window 1 commands wrong: %+v", w1)
	}
	// Window 1 bank wait: bank 0 gets t0's marked 50; bank 1 t1's 100.
	if w1.Banks[0].Wait != 50 || w1.Banks[1].Wait != 100 {
		t.Errorf("window 1 bank wait = %d/%d, want 50/100", w1.Banks[0].Wait, w1.Banks[1].Wait)
	}
	// Window 7 [700,800): only the in-flight req 4's unmarked wait.
	w7 := r.Windows[7]
	if w7.Threads[1].Unmarked != 100 || w7.Banks[1].Wait != 100 {
		t.Errorf("window 7 in-flight attribution wrong: %+v", w7)
	}

	// Bank totals: bank 0 wait = t0's 150; bank 1 = 400+300 = 700.
	if r.Banks[0].Wait != 150 || r.Banks[1].Wait != 700 {
		t.Errorf("bank waits = %d/%d, want 150/700", r.Banks[0].Wait, r.Banks[1].Wait)
	}
	// Queue residency: bank 0 = req1 [0,250) + req3 [300,400) = 350 cycles
	// over span 1000 → 0.35. Bank 1 = [80,530)+[700,1000) = 750 → 0.75.
	if got := r.Banks[0].QueueDepth; got < 0.349 || got > 0.351 {
		t.Errorf("bank 0 queue depth = %v, want 0.35", got)
	}
	if got := r.Banks[1].QueueDepth; got < 0.749 || got > 0.751 {
		t.Errorf("bank 1 queue depth = %v, want 0.75", got)
	}

	// Attribution: bank 1 and thread 1 dominate.
	if len(r.TopBanks) == 0 || r.TopBanks[0].ID != 1 || r.TopBanks[0].Cycles != 700 {
		t.Errorf("top bank = %+v, want bank 1 / 700", r.TopBanks)
	}
	if len(r.TopThreads) == 0 || r.TopThreads[0].ID != 1 || r.TopThreads[0].Cycles != 700 {
		t.Errorf("top thread = %+v, want thread 1 / 700", r.TopThreads)
	}

	// Batch timeline: one batch formed at 50, drained at 250.
	if len(r.Batches) != 1 || r.Batches[0].Formed != 50 || r.Batches[0].Drained != 250 {
		t.Errorf("batches = %+v, want one span [50,250]", r.Batches)
	}
}

func TestRangeQueries(t *testing.T) {
	s := FromLog(fixtureLog())
	r := s.Analyze(Options{WindowCycles: 100})

	// Cycles [0,300): t0 waited 150 on bank 0, t1 waited 220 on bank 1.
	top := r.RangeTopBanks(0, 300, 2)
	if len(top) != 2 || top[0].ID != 1 || top[0].Cycles != 220 || top[1].ID != 0 || top[1].Cycles != 150 {
		t.Errorf("RangeTopBanks(0,300) = %+v, want bank1/220 then bank0/150", top)
	}
	// Cycles [600,1000): only the in-flight request's 300 on bank 1 / t1.
	top = r.RangeTopBanks(600, 1000, 5)
	if len(top) != 1 || top[0].ID != 1 || top[0].Cycles != 300 {
		t.Errorf("RangeTopBanks(600,1000) = %+v, want bank1/300", top)
	}
	thr := r.RangeTopThreads(600, 0, 5) // to=0 → span end
	if len(thr) != 1 || thr[0].ID != 1 || thr[0].Cycles != 300 {
		t.Errorf("RangeTopThreads(600,end) = %+v, want t1/300", thr)
	}
	// Partial window overlap scales proportionally: [0,50) is half of
	// window 0, whose bank-0 wait is 100 (50 unmarked + 50 marked).
	top = r.RangeTopBanks(0, 50, 5)
	if len(top) < 1 || top[0].ID != 0 || top[0].Cycles != 50 {
		t.Errorf("RangeTopBanks(0,50) = %+v, want bank0/50", top)
	}
}

func TestIngestStreamingMatchesFromLog(t *testing.T) {
	log := fixtureLog()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, log); err != nil {
		t.Fatal(err)
	}
	streamed, err := Ingest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct := FromLog(log)
	if streamed.Events() != direct.Events() || streamed.Meta() != direct.Meta() {
		t.Fatalf("streamed %d events (%+v), direct %d", streamed.Events(), streamed.Meta(), direct.Events())
	}
	// The stores must analyze identically.
	a, b := streamed.Analyze(Options{WindowCycles: 100}), direct.Analyze(Options{WindowCycles: 100})
	if a.Requests != b.Requests || a.Threads[0] != b.Threads[0] || a.Banks[1] != b.Banks[1] {
		t.Errorf("streamed and direct analyses diverge: %+v vs %+v", a.Threads, b.Threads)
	}
}

func TestIngestTruncatedStream(t *testing.T) {
	log := fixtureLog()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, log); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	// Cut mid-line: ingest keeps the parseable prefix and flags it.
	cut := full[:len(full)-20]
	s, err := Ingest(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("Ingest(cut) err = %v, want graceful truncation", err)
	}
	if !s.Truncated() {
		t.Error("cut stream: Truncated() = false, want true")
	}
	if s.Events() != len(log.Events)-1 {
		t.Errorf("cut stream kept %d events, want %d", s.Events(), len(log.Events)-1)
	}
	// A truncated store still analyzes (partial results, no panic), and the
	// report carries the flag.
	r := s.Analyze(Options{})
	if !r.Truncated {
		t.Error("report of truncated store lacks the flag")
	}
	var out bytes.Buffer
	if err := r.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "truncated") {
		t.Error("text report of truncated store lacks the caveat")
	}

	// Record-time drops (header dropped > 0) also flag the store.
	dropped := strings.Replace(full, "\"dropped\":0", "\"dropped\":42", 1)
	s, err = Ingest(strings.NewReader(dropped))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated() || s.Dropped() != 42 {
		t.Errorf("dropped>0: Truncated=%v Dropped=%d, want true/42", s.Truncated(), s.Dropped())
	}

	// Header damage is the one fatal case.
	if _, err := Ingest(strings.NewReader("{bogus\n")); err == nil {
		t.Error("mangled header: want error")
	}
}

// TestFromLogSnapshotRoundTrip takes a log through FromLog, a snapshot and
// ReadSnapshot: the store read back holds every event of the log, column by
// column, writes the same snapshot bytes again, and audits the same run.
func TestFromLogSnapshotRoundTrip(t *testing.T) {
	log := fixtureLog()
	var first bytes.Buffer
	if err := FromLog(log).WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Events() != len(log.Events) {
		t.Fatalf("round trip lost events: %d vs %d", back.Events(), len(log.Events))
	}
	for i, want := range log.Events {
		got := trace.Event{
			Kind: trace.Kind(back.kind[i]), Cycle: back.cycle[i], Req: back.req[i],
			Row: back.row[i], Thread: back.thread[i], Bank: back.bank[i],
			Rank: back.rank[i], Channel: back.channel[i], Cmd: back.cmd[i], Write: back.write[i],
		}
		if got != want {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
	var second bytes.Buffer
	if err := back.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), first.Bytes()) {
		t.Error("the store read back writes a different snapshot")
	}
	a := back.Audit()
	if a.Requests != 2 || a.Batches != 1 || a.MaxBatchSpan != 200 {
		t.Errorf("audit over the read-back store: requests=%d batches=%d max span=%d, want 2/1/200",
			a.Requests, a.Batches, a.MaxBatchSpan)
	}
}

func TestAnalyzeWindowWidthClamp(t *testing.T) {
	s := FromLog(fixtureLog())
	// A 1-cycle width over a 1000-cycle span would want 1000 windows; fine
	// (< maxWindows). A degenerate zero-width falls back to DefaultWindows.
	if got := len(s.Analyze(Options{WindowCycles: 1}).Windows); got != 1000 {
		t.Errorf("width 1: %d windows, want 1000", got)
	}
	if got := len(s.Analyze(Options{}).Windows); got != DefaultWindows {
		t.Errorf("default width: %d windows, want %d", got, DefaultWindows)
	}
}
