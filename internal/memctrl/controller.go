package memctrl

import (
	"fmt"
	"math"

	"repro/internal/dram"
	"repro/internal/trace"
)

// Config sizes the controller. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Threads is the number of threads (cores) that may issue requests.
	Threads int
	// ReadBufEntries is the memory request buffer capacity (Table 2: 128).
	ReadBufEntries int
	// WriteBufEntries is the write data buffer capacity (Table 2: 64).
	WriteBufEntries int
	// WriteDrainHigh and WriteDrainLow are the write-buffer occupancy
	// watermarks: at High the controller force-drains writes (even over
	// ready reads) until occupancy falls to Low.
	WriteDrainHigh int
	WriteDrainLow  int
	// ClosedPage selects the closed-page row policy: every column access
	// auto-precharges its row unless another buffered request targets the
	// same row. The paper's baseline (and default here) is open-page,
	// which row-hit-first scheduling exploits.
	ClosedPage bool
	// Channel identifies this controller's channel in a sharded
	// multi-channel system; it is stamped onto CommandEvents and trace
	// events so merged per-channel streams stay attributable. 0 for
	// single-controller systems.
	Channel int
	// IDBase and IDStride shard the request-ID space across independent
	// controllers: controller ch of n assigns IDs ch, ch+n, ch+2n, ...
	// (IDBase=ch, IDStride=n), keeping IDs globally unique so merged trace
	// and command streams never collide. The zero values mean base 0,
	// stride 1 — the single-controller numbering.
	IDBase   int64
	IDStride int64
}

// DefaultConfig returns the paper's baseline controller configuration for
// the given thread count.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:         threads,
		ReadBufEntries:  128,
		WriteBufEntries: 64,
		WriteDrainHigh:  48,
		WriteDrainLow:   16,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Threads <= 0:
		return fmt.Errorf("memctrl: config: threads must be positive, got %d", c.Threads)
	case c.ReadBufEntries <= 0 || c.WriteBufEntries <= 0:
		return fmt.Errorf("memctrl: config: buffer capacities must be positive")
	case c.WriteDrainHigh > c.WriteBufEntries || c.WriteDrainLow < 0 || c.WriteDrainLow >= c.WriteDrainHigh:
		return fmt.Errorf("memctrl: config: need 0 <= low < high <= capacity, got low=%d high=%d cap=%d",
			c.WriteDrainLow, c.WriteDrainHigh, c.WriteBufEntries)
	case c.Channel < 0:
		return fmt.Errorf("memctrl: config: channel must be non-negative, got %d", c.Channel)
	case c.IDBase < 0 || c.IDStride < 0:
		return fmt.Errorf("memctrl: config: ID base/stride must be non-negative, got base=%d stride=%d",
			c.IDBase, c.IDStride)
	}
	return nil
}

// ThreadStats aggregates per-thread service statistics over one run.
type ThreadStats struct {
	ReadsCompleted  int64
	WritesCompleted int64
	// TotalReadLatency is the sum over completed reads of
	// (completion - arrival), in DRAM cycles.
	TotalReadLatency int64
	// WorstCaseLatency is the maximum read latency observed, in DRAM cycles
	// (the paper's "WC lat." column of Table 4 in CPU cycles; the sim layer
	// converts).
	WorstCaseLatency int64
	// RowHitReads counts completed reads serviced without an activate.
	RowHitReads int64
	// blpSum / blpCycles implement the paper's BLP definition (Section 7):
	// the average number of banks servicing the thread's read requests,
	// over cycles in which at least one bank is servicing one.
	blpSum    int64
	blpCycles int64
}

// Merge combines stats from independent controllers serving the same
// thread (multi-channel systems): counters add, worst-case latency takes
// the maximum, and the BLP accumulators add — parallelism across
// controllers that overlaps in time is thus credited conservatively
// (the merged BLP is a weighted average, not a sum).
func (s ThreadStats) Merge(o ThreadStats) ThreadStats {
	out := ThreadStats{
		ReadsCompleted:   s.ReadsCompleted + o.ReadsCompleted,
		WritesCompleted:  s.WritesCompleted + o.WritesCompleted,
		TotalReadLatency: s.TotalReadLatency + o.TotalReadLatency,
		WorstCaseLatency: s.WorstCaseLatency,
		RowHitReads:      s.RowHitReads + o.RowHitReads,
		blpSum:           s.blpSum + o.blpSum,
		blpCycles:        s.blpCycles + o.blpCycles,
	}
	if o.WorstCaseLatency > out.WorstCaseLatency {
		out.WorstCaseLatency = o.WorstCaseLatency
	}
	return out
}

// BLP returns the thread's measured bank-level parallelism.
func (s ThreadStats) BLP() float64 {
	if s.blpCycles == 0 {
		return 0
	}
	return float64(s.blpSum) / float64(s.blpCycles)
}

// AvgReadLatency returns the mean read service latency in DRAM cycles.
func (s ThreadStats) AvgReadLatency() float64 {
	if s.ReadsCompleted == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.ReadsCompleted)
}

// RowHitRate returns the fraction of completed reads serviced as row hits.
func (s ThreadStats) RowHitRate() float64 {
	if s.ReadsCompleted == 0 {
		return 0
	}
	return float64(s.RowHitReads) / float64(s.ReadsCompleted)
}

// BLPAccum exposes the raw BLP accumulators (sum of busy-bank counts and
// the cycle count they were accumulated over) for epoch-delta telemetry.
func (s ThreadStats) BLPAccum() (sum, cycles int64) {
	return s.blpSum, s.blpCycles
}

type inflightEntry struct {
	end int64
	req *Request
}

// Controller is one DRAM channel-group controller: a request buffer, a write
// buffer, a scheduling policy, and the DRAM device it drives.
type Controller struct {
	cfg    Config
	dev    *dram.Device
	policy Policy

	// reads and writes hold the buffered requests in arrival order, as
	// intrusive doubly-linked lists (reqlist.go) so removal at CAS issue is
	// O(1) pointer surgery instead of a slice tail shift.
	reads  reqList
	writes reqList
	// bankReads and bankWrites index the buffered requests by bank, each
	// queue in arrival order on the requests' bank links. They let the
	// scheduler visit only banks that can legally accept a command (see
	// bestCandidate) and are kept in sync with reads/writes on enqueue and
	// CAS issue.
	bankReads  []reqList
	bankWrites []reqList
	// readBanks and writeBanks hold one bit per bank whose bankReads or
	// bankWrites queue is non-empty (bitmask.go): set on enqueue, cleared by
	// removeBuffered when the queue empties. The scans visit only those banks.
	readBanks  bitmask
	writeBanks bitmask
	// readCache and writeCache are the per-bank best-candidate caches over
	// the corresponding queues (candcache.go). cacheReads reports whether
	// the read cache may be reused across scans — the policy must publish an
	// order epoch for that (custom policies without one rebuild every scan);
	// the write order (writeBetter) is static, so the write cache always may.
	readCache  []bankCand
	writeCache []bankCand
	cacheReads bool
	// epoched and elig are the attached policy's optional views, resolved
	// once at construction so the hot scan performs no type assertions.
	epoched EpochedPolicy
	elig    EligibilityPolicy
	// freeReqs heads the retired-Request freelist newRequest recycles from.
	freeReqs *Request
	// inflight holds CAS-issued requests ordered by completion time (data
	// bus bursts complete in issue order, so a FIFO ring suffices).
	inflight inflightRing

	nextID     int64
	draining   bool
	onComplete func(*Request, int64)
	cmdLog     func(CommandEvent)
	// probe, when non-nil, receives per-read latency observations from the
	// retire path. It never influences scheduling.
	probe LatencyObserver
	// tracer, when non-nil, receives request lifecycle events (arrival,
	// command issue, completion). Like the probe it is strictly passive.
	tracer *trace.Tracer
	// ranked is the attached policy's ranking view when it has one, used
	// only to stamp rank-at-issue onto trace events.
	ranked RankedPolicy
	// nextRefresh is the next due all-bank refresh when the device's
	// TREFI is non-zero; trefi caches that interval so the per-cycle check
	// does not copy the device's whole Timing struct.
	nextRefresh int64
	trefi       int64

	// Table 1 registers: per-thread-per-bank and per-thread outstanding
	// read request counts (ReqsInBankPerThread, ReqsPerThread).
	// bankCount[t] caches how many banks have a non-zero
	// perThreadPerBank[t][b] (STFM's bank-parallelism divisor), and readers
	// holds the threads with a non-zero perThread; both change only where a
	// count crosses 0↔1.
	perThreadPerBank [][]int
	perThread        []int
	bankCount        []int
	readers          bitmask
	// inServiceBank counts, per thread per bank, read requests with >=1
	// command issued and data not yet returned. banksBusy caches how many
	// banks have a non-zero count, for the BLP metric (writes never stall
	// a core, so the paper's bank-level parallelism is about demand misses).
	inServiceBank [][]int
	banksBusy     []int

	// accounted counts the cycles accounted so far — one per Tick and per
	// elided Step, plus every AccountIdleSpan span — and is never reset.
	// blpMark[t] is the value of accounted up to which thread t's BLP has
	// been folded into threadStats.
	// The per-cycle accrual the ticked loop used to perform is deferred until
	// that thread's busy-bank count is about to change (retire, first service
	// of a read) or its stats are read, then applied in closed form:
	// banksBusy[t] is constant over accounted−blpMark[t] cycles by
	// construction, so the deferred sum equals the per-cycle one bit for bit,
	// and a transition settles only its own thread.
	accounted int64
	blpMark   []int64

	threadStats []ThreadStats
	cmdsIssued  int64

	// idleUntil caches the earliest cycle at which any command could become
	// issuable, set after a scan cycle found nothing to issue: the min of
	// the failed read and write scans' own bounds (bestCandidate), never a
	// second pass. Until then the Tick fast path skips candidate
	// enumeration entirely, and NextEventAt takes it as the device term. A
	// bank whose eligibility-filtered request could become eligible while
	// its command class is legal bounds the scan at the current cycle, so
	// the cache is not armed past it. Invalidated (zeroed) by anything that
	// can create a new candidate or change device state: enqueues and
	// command issues (including refresh). The parbsdebug audit checks every
	// skipped tick against the flat reference scan (audit_on.go).
	idleUntil int64
	// stepNext is the bound the last Step returned: until that cycle Step
	// elides the tick. Cleared by enqueues, which can create a candidate the
	// bound did not see.
	stepNext int64
}

// NewController builds a controller over dev with the given policy.
func NewController(dev *dram.Device, policy Policy, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	banks := dev.Geometry().Banks
	c := &Controller{
		cfg:              cfg,
		dev:              dev,
		policy:           policy,
		reads:            reqList{kind: linkBuf},
		writes:           reqList{kind: linkBuf},
		bankReads:        make([]reqList, banks),
		bankWrites:       make([]reqList, banks),
		readBanks:        newBitmask(banks),
		writeBanks:       newBitmask(banks),
		readCache:        make([]bankCand, banks),
		writeCache:       make([]bankCand, banks),
		inflight:         newInflightRing(cfg.ReadBufEntries + cfg.WriteBufEntries),
		perThreadPerBank: make([][]int, cfg.Threads),
		perThread:        make([]int, cfg.Threads),
		bankCount:        make([]int, cfg.Threads),
		readers:          newBitmask(cfg.Threads),
		inServiceBank:    make([][]int, cfg.Threads),
		banksBusy:        make([]int, cfg.Threads),
		blpMark:          make([]int64, cfg.Threads),
		threadStats:      make([]ThreadStats, cfg.Threads),
	}
	for b := range c.bankReads {
		c.bankReads[b] = reqList{kind: linkBank}
		c.bankWrites[b] = reqList{kind: linkBank}
	}
	for i := range c.perThreadPerBank {
		c.perThreadPerBank[i] = make([]int, banks)
		c.inServiceBank[i] = make([]int, banks)
	}
	c.epoched, _ = policy.(EpochedPolicy)
	c.elig, _ = policy.(EligibilityPolicy)
	c.cacheReads = c.epoched != nil
	if c.cfg.IDStride == 0 {
		c.cfg.IDStride = 1
	}
	c.nextID = c.cfg.IDBase
	c.trefi = dev.Timing().TREFI
	c.nextRefresh = c.trefi
	policy.OnAttach(c)
	return c, nil
}

// Device returns the DRAM device the controller drives.
func (c *Controller) Device() *dram.Device { return c.dev }

// NumThreads returns the number of threads the controller serves.
func (c *Controller) NumThreads() int { return c.cfg.Threads }

// SetOnComplete registers the read-completion callback; it receives the
// request and the DRAM cycle its data burst finished.
func (c *Controller) SetOnComplete(fn func(*Request, int64)) { c.onComplete = fn }

// CommandEvent describes one issued DRAM command for logging/inspection.
type CommandEvent struct {
	Now  int64
	Cmd  dram.Command
	Bank int
	Row  int64
	// Thread is the issuing thread, or -1 for controller-initiated
	// commands (refresh sequencing).
	Thread int
	// ReqID is the request's arrival sequence number, or -1.
	ReqID int64
	// Channel is the issuing controller's channel index (Config.Channel);
	// 0 in single-controller systems.
	Channel int
}

// SetCommandLog registers a hook receiving every issued DRAM command; nil
// disables logging. Intended for timelines and debugging, not hot paths.
func (c *Controller) SetCommandLog(fn func(CommandEvent)) { c.cmdLog = fn }

// LatencyObserver receives per-read service latencies from the retire
// path. *telemetry.Probe satisfies it; the interface keeps the controller
// free of a telemetry import.
type LatencyObserver interface {
	ObserveReadLatency(thread int, lat int64)
}

// SetProbe attaches a telemetry latency observer (nil detaches). The
// observer must be bound/sized by the caller; the controller only feeds it
// read latencies.
func (c *Controller) SetProbe(p LatencyObserver) { c.probe = p }

// RankedPolicy is the optional ranking view of a scheduling policy: the
// thread's current rank position, 0 highest. *core.Engine satisfies it.
type RankedPolicy interface {
	RankPosition(thread int) int
}

// SetTracer attaches a lifecycle tracer (nil detaches). The tracer must be
// bound by the caller; the controller feeds it arrivals, per-command
// issues (with rank-at-issue when the policy ranks threads), and
// completions. It never influences scheduling.
func (c *Controller) SetTracer(t *trace.Tracer) {
	c.tracer = t
	c.ranked, _ = c.policy.(RankedPolicy)
}

// FirstRead returns the oldest buffered read request, or nil when the read
// buffer is empty. Policies iterate the buffer in arrival order via
// Request.NextBuffered; they must not unlink or reorder requests.
func (c *Controller) FirstRead() *Request { return c.reads.head }

// FirstReadInBank returns the oldest buffered read targeting the bank, or
// nil. Bank queues are in arrival order, so this is the bank's oldest
// request — the O(1) form of "does an older request wait on this bank".
func (c *Controller) FirstReadInBank(bank int) *Request { return c.bankReads[bank].head }

// ReadsPerThread returns the thread's outstanding read count
// (Table 1 ReqsPerThread).
func (c *Controller) ReadsPerThread(thread int) int { return c.perThread[thread] }

// ReadsInBank returns the thread's outstanding reads to a bank
// (Table 1 ReqsInBankPerThread).
func (c *Controller) ReadsInBank(thread, bank int) int {
	return c.perThreadPerBank[thread][bank]
}

// BanksWithReads returns how many banks hold at least one of the thread's
// buffered reads — the count of non-zero ReadsInBank(thread, ·), kept in
// O(1).
func (c *Controller) BanksWithReads(thread int) int { return c.bankCount[thread] }

// ThreadsWithReads returns the set of threads with at least one buffered
// read, as a bitmask: thread t is bit t%64 of word t/64. The slice is the
// controller's live state, valid until the next enqueue or issue; callers
// must not modify it.
func (c *Controller) ThreadsWithReads() []uint64 { return c.readers }

// PendingReads returns the total number of buffered reads.
func (c *Controller) PendingReads() int { return c.reads.n }

// PendingWrites returns the write-buffer occupancy.
func (c *Controller) PendingWrites() int { return c.writes.n }

// ThreadStats returns a copy of the accumulated stats for thread. Deferred
// BLP accounting is folded in first, so the copy is exact as of the last
// Tick, Step or AccountIdleSpan.
func (c *Controller) ThreadStats(thread int) ThreadStats {
	c.flushBLP(thread)
	return c.threadStats[thread]
}

// ResetStats zeroes all per-thread service statistics and the device
// counters, e.g. after warmup. Buffer contents and policy state persist.
// Pending BLP cycles belong to the discarded window and are dropped with it.
func (c *Controller) ResetStats() {
	for i := range c.threadStats {
		c.threadStats[i] = ThreadStats{}
		c.blpMark[i] = c.accounted
	}
	c.cmdsIssued = 0
	c.dev.ResetStats()
}

// CommandsIssued returns the total DRAM commands issued.
func (c *Controller) CommandsIssued() int64 { return c.cmdsIssued }

// EnqueueRead inserts a read request. It returns the request and true, or
// nil and false when the request buffer is full (the core must retry).
func (c *Controller) EnqueueRead(thread int, addr int64, now int64) (*Request, bool) {
	if c.reads.n >= c.cfg.ReadBufEntries {
		return nil, false
	}
	r := c.newRequest(thread, addr, now, false)
	c.idleUntil, c.stepNext = 0, 0
	c.reads.pushBack(r)
	c.bankReads[r.Loc.Bank].pushBack(r)
	c.readBanks.set(r.Loc.Bank)
	c.perThread[thread]++
	if c.perThread[thread] == 1 {
		c.readers.set(thread)
	}
	c.perThreadPerBank[thread][r.Loc.Bank]++
	if c.perThreadPerBank[thread][r.Loc.Bank] == 1 {
		c.bankCount[thread]++
	}
	// Arrival is traced before the policy sees the request: empty-slot
	// batching may mark it inside OnEnqueue, and the trace must show the
	// arrival first.
	if c.tracer != nil {
		c.tracer.RequestArrived(r.ID, thread, r.Loc.Bank, r.Loc.Row, false, now)
	}
	c.policy.OnEnqueue(r, now)
	// After OnEnqueue: the insert comparison must see the policy's
	// per-request stamps (NFQ deadline, empty-slot mark).
	c.cacheInsert(c.readCache, r, false)
	return r, true
}

// EnqueueWrite inserts a writeback. It returns false when the write buffer
// is full.
func (c *Controller) EnqueueWrite(thread int, addr int64, now int64) bool {
	if c.writes.n >= c.cfg.WriteBufEntries {
		return false
	}
	r := c.newRequest(thread, addr, now, true)
	c.idleUntil, c.stepNext = 0, 0
	c.writes.pushBack(r)
	c.bankWrites[r.Loc.Bank].pushBack(r)
	c.writeBanks.set(r.Loc.Bank)
	c.cacheInsert(c.writeCache, r, true)
	if c.tracer != nil {
		c.tracer.RequestArrived(r.ID, thread, r.Loc.Bank, r.Loc.Row, true, now)
	}
	return true
}

func (c *Controller) newRequest(thread int, addr, now int64, isWrite bool) *Request {
	if thread < 0 || thread >= c.cfg.Threads {
		panic(fmt.Sprintf("memctrl: thread %d out of range [0,%d)", thread, c.cfg.Threads))
	}
	r := c.freeReqs
	if r != nil {
		c.freeReqs = r.links[linkBuf].next
	} else {
		r = new(Request)
	}
	*r = Request{
		ID:       c.nextID,
		Thread:   thread,
		Addr:     addr,
		Loc:      c.dev.Geometry().Map(addr),
		IsWrite:  isWrite,
		Arrival:  now,
		firstCmd: -1,
	}
	c.nextID += c.cfg.IDStride
	return r
}

// freeRequest returns a fully-retired request to the allocation freelist,
// chained through its buffer-link slot. Safe at retire time: by then the
// request is off every queue and cache, and no layer keeps the pointer past
// the completion callbacks — the cores resolve their window slot inside
// Complete (reading only Tag) and the multi-channel drain reads fields
// strictly before the next enqueue could pop the entry again.
func (c *Controller) freeRequest(r *Request) {
	r.links[linkBuf].next = c.freeReqs
	c.freeReqs = r
}

// Tick advances the controller by one DRAM cycle: it retires finished
// bursts, lets the policy update its state, and issues at most one ready
// command chosen by the policy (reads) or FR-FCFS (writes).
func (c *Controller) Tick(now int64) {
	c.retire(now)
	c.policy.OnCycle(now)
	// Defer this cycle's BLP accrual (see accounted). Retires above already
	// settled older cycles of their thread before changing its busy-bank
	// count, so cycle `now` is pending with its post-retire counts — exactly
	// what the old per-cycle accountBLP observed at this point.
	c.accounted++

	// Global early-out: with the command bus busy this cycle, no command
	// of any kind can issue, so skip all candidate enumeration.
	if !c.dev.CommandBusFree(now) {
		return
	}

	// All-bank refresh takes absolute priority once due: close the open
	// banks, issue REF, and only then resume request scheduling. Modeled
	// but disabled by default (Timing.TREFI == 0); see DESIGN.md.
	if trefi := c.trefi; trefi > 0 && now >= c.nextRefresh {
		if c.refreshStep(now, trefi) {
			return
		}
	}

	// Idle fast path: an earlier scan proved no command can become legal
	// before idleUntil, and nothing has invalidated that bound since, so the
	// candidate enumeration below cannot succeed. Buffer occupancy is
	// unchanged over the window (enqueues invalidate), so the drain
	// hysteresis below would not flip either.
	if now < c.idleUntil {
		auditIdleSkip(c, now)
		return
	}

	// Write-drain hysteresis.
	if c.writes.n >= c.cfg.WriteDrainHigh {
		c.draining = true
	} else if c.writes.n <= c.cfg.WriteDrainLow {
		c.draining = false
	}

	// Both scans failing arms the idle cache with the min of their bounds,
	// computed as a byproduct of the failed scans themselves — no extra pass.
	var b1, b2 int64
	var ok bool
	if c.draining {
		if ok, b1 = c.issueWrite(now); ok {
			return
		}
		if ok, b2 = c.issueRead(now); ok {
			return
		}
	} else {
		if ok, b1 = c.issueRead(now); ok {
			return
		}
		if ok, b2 = c.issueWrite(now); ok {
			return
		}
	}
	c.idleUntil = min(b1, b2)
}

// refreshStep advances an in-progress refresh sequence: it issues a
// precharge to one open bank, or the refresh itself once all banks are
// closed. It reports whether the command slot was consumed (the caller
// must then skip request scheduling this cycle).
func (c *Controller) refreshStep(now, trefi int64) bool {
	c.idleUntil = 0
	if c.dev.CanIssue(now, dram.CmdRefresh, 0, 0) {
		c.dev.Issue(now, dram.CmdRefresh, 0, 0)
		c.cmdsIssued++
		c.logCmd(now, dram.CmdRefresh, 0, 0, nil)
		if c.tracer != nil {
			c.tracer.CommandIssued(-1, -1, dram.CmdRefresh, 0, 0, -1, now)
		}
		c.nextRefresh = now + trefi
		return true
	}
	for b := 0; b < c.dev.Geometry().Banks; b++ {
		if c.dev.OpenRow(b) >= 0 && c.dev.CanIssue(now, dram.CmdPrecharge, b, 0) {
			c.dev.Issue(now, dram.CmdPrecharge, b, 0)
			c.cmdsIssued++
			c.logCmd(now, dram.CmdPrecharge, b, 0, nil)
			if c.tracer != nil {
				c.tracer.CommandIssued(-1, -1, dram.CmdPrecharge, b, 0, -1, now)
			}
			return true
		}
	}
	// Banks are still inside tRAS or similar; wait without issuing new
	// work so the refresh is not pushed out indefinitely.
	return true
}

// retire completes data bursts whose end time has passed.
func (c *Controller) retire(now int64) {
	for c.inflight.len() > 0 && c.inflight.front().end <= now {
		e := c.inflight.pop()
		r := e.req
		r.done = true
		if c.tracer != nil {
			c.tracer.RequestCompleted(r.ID, r.Thread, e.end, e.end-r.Arrival)
		}
		st := &c.threadStats[r.Thread]
		if r.IsWrite {
			st.WritesCompleted++
			c.freeRequest(r)
			continue
		}
		c.inServiceBank[r.Thread][r.Loc.Bank]--
		if c.inServiceBank[r.Thread][r.Loc.Bank] == 0 {
			// The busy-bank count is about to drop: settle the thread's
			// pending BLP cycles (over which it was constant) first.
			c.flushBLP(r.Thread)
			c.banksBusy[r.Thread]--
		}
		lat := e.end - r.Arrival
		st.ReadsCompleted++
		st.TotalReadLatency += lat
		if lat > st.WorstCaseLatency {
			st.WorstCaseLatency = lat
		}
		if c.probe != nil {
			c.probe.ObserveReadLatency(r.Thread, lat)
		}
		if r.WasRowHit() {
			st.RowHitReads++
		}
		c.policy.OnComplete(r, now)
		if c.onComplete != nil {
			c.onComplete(r, e.end)
		}
		c.freeRequest(r)
	}
}

// flushBLP folds the thread's pending BLP cycles (accounted − blpMark) into
// its stats in closed form. Callers guarantee the thread's busy-bank count
// was constant over that span (retire and first-service flush before
// transitioning), so crediting `count × pending` equals the retired
// per-cycle accrual bit for bit.
func (c *Controller) flushBLP(thread int) {
	p := c.accounted - c.blpMark[thread]
	if p == 0 {
		return
	}
	c.blpMark[thread] = c.accounted
	if n := c.banksBusy[thread]; n > 0 {
		st := &c.threadStats[thread]
		st.blpSum += int64(n) * p
		st.blpCycles += p
	}
}

// issueRead picks the policy's best ready read candidate and issues its
// command. It reports whether a command was issued and, when it did not, a
// lower bound on the next cycle at which a read-side command could become
// legal (see bestCandidate).
func (c *Controller) issueRead(now int64) (bool, int64) {
	best, ok, bound := c.bestCandidate(c.bankReads, c.readBanks, c.readCache, c.cacheReads, now, false)
	if !ok {
		return false, bound
	}
	c.issue(best, now)
	return true, 0
}

// better orders candidates: the attached policy for reads, FR-FCFS for
// writes.
func (c *Controller) better(a, b Candidate, isWrite bool) bool {
	if isWrite {
		return writeBetter(a, b)
	}
	return c.policy.Better(a, b)
}

// issueWrite drains the write buffer with a fixed FR-FCFS order. Like
// issueRead it reports whether a command issued and, on failure, a lower
// bound on the next cycle a write-side command could become legal (an empty
// buffer bounds to "never" — enqueues invalidate the idle cache).
func (c *Controller) issueWrite(now int64) (bool, int64) {
	if c.writes.n == 0 {
		return false, int64(math.MaxInt64)
	}
	// The write order (writeBetter) is time-invariant, so the write cache
	// needs no policy epoch.
	best, found, bound := c.bestCandidate(c.bankWrites, c.writeBanks, c.writeCache, true, now, true)
	if !found {
		return false, bound
	}
	c.issue(best, now)
	return true, 0
}

// writeBetter is FR-FCFS: row-hit CAS first, then oldest.
func writeBetter(a, b Candidate) bool {
	if a.IsRowHit() != b.IsRowHit() {
		return a.IsRowHit()
	}
	return a.Req.ID < b.Req.ID
}

// issue sends the candidate's command to the device and updates request and
// controller state.
func (c *Controller) issue(cand Candidate, now int64) {
	r := cand.Req
	c.idleUntil = 0
	var end int64
	if cand.Cmd == dram.CmdRead || cand.Cmd == dram.CmdWrite {
		end = c.issueCAS(cand, now)
	} else {
		end = c.dev.Issue(now, cand.Cmd, r.Loc.Bank, r.Loc.Row)
	}
	c.cmdsIssued++
	c.logCmd(now, cand.Cmd, r.Loc.Bank, r.Loc.Row, r)
	if c.tracer != nil {
		rank := -1
		if c.ranked != nil && !r.IsWrite {
			rank = c.ranked.RankPosition(r.Thread)
		}
		c.tracer.CommandIssued(r.ID, r.Thread, cand.Cmd, r.Loc.Bank, r.Loc.Row, rank, now)
	}
	if r.firstCmd < 0 {
		r.firstCmd = now
		if !r.IsWrite {
			if c.inServiceBank[r.Thread][r.Loc.Bank] == 0 {
				// First service raises the busy-bank count: settle the
				// thread's pending BLP cycles first. The pending span already
				// includes cycle `now` with its pre-issue count, matching the
				// old per-cycle accrual that ran before scheduling.
				c.flushBLP(r.Thread)
				c.banksBusy[r.Thread]++
			}
			c.inServiceBank[r.Thread][r.Loc.Bank]++
		}
	}
	if cand.Cmd == dram.CmdPrecharge || cand.Cmd == dram.CmdActivate {
		r.neededACT = true
	}
	if !r.IsWrite {
		c.policy.OnIssue(cand, now)
	}
	if cand.Cmd == dram.CmdRead || cand.Cmd == dram.CmdWrite {
		c.removeBuffered(r)
		c.inflight.push(inflightEntry{end: end, req: r})
	}
}

// issueCAS sends the candidate's column access, with auto-precharge under
// the closed-page policy when no other buffered request wants the row.
func (c *Controller) issueCAS(cand Candidate, now int64) int64 {
	r := cand.Req
	if c.cfg.ClosedPage {
		wanted := c.rowWanted(r)
		auditRowWanted(c, r, wanted)
		if !wanted {
			return c.dev.IssueAutoPrecharge(now, cand.Cmd, r.Loc.Bank, r.Loc.Row)
		}
	}
	return c.dev.Issue(now, cand.Cmd, r.Loc.Bank, r.Loc.Row)
}

// rowWanted reports whether any other buffered request targets req's row.
// req itself is still buffered (it is removed only after its CAS is chosen),
// hence the self-exclusion. It walks only req's bank queues; it runs once
// per CAS under the closed-page policy and never on the default open-page
// path, so it does not merit an index of its own.
func (c *Controller) rowWanted(req *Request) bool {
	rq := &c.bankReads[req.Loc.Bank]
	for r := rq.head; r != nil; r = rq.next(r) {
		if r != req && r.Loc.Row == req.Loc.Row {
			return true
		}
	}
	wq := &c.bankWrites[req.Loc.Bank]
	for r := wq.head; r != nil; r = wq.next(r) {
		if r != req && r.Loc.Row == req.Loc.Row {
			return true
		}
	}
	return false
}

// removeBuffered unlinks a CAS-issued request from its buffer and bank
// queue — O(1) pointer surgery on the intrusive lists — and updates the
// bank's candidate entry (invalidated only when a cached winner departs),
// the non-empty-bank masks and the per-thread read counters.
func (c *Controller) removeBuffered(r *Request) {
	b := r.Loc.Bank
	if r.IsWrite {
		c.writes.remove(r)
		c.bankWrites[b].remove(r)
		if c.bankWrites[b].n == 0 {
			c.writeBanks.clear(b)
		}
		c.writeCache[b].cacheRemove(r)
		return
	}
	c.reads.remove(r)
	c.bankReads[b].remove(r)
	if c.bankReads[b].n == 0 {
		c.readBanks.clear(b)
	}
	c.readCache[b].cacheRemove(r)
	c.perThread[r.Thread]--
	if c.perThread[r.Thread] == 0 {
		c.readers.clear(r.Thread)
	}
	c.perThreadPerBank[r.Thread][b]--
	if c.perThreadPerBank[r.Thread][b] == 0 {
		c.bankCount[r.Thread]--
	}
}

// logCmd forwards an issued command to the registered log hook.
func (c *Controller) logCmd(now int64, cmd dram.Command, bank int, row int64, r *Request) {
	if c.cmdLog == nil {
		return
	}
	ev := CommandEvent{Now: now, Cmd: cmd, Bank: bank, Row: row, Thread: -1, ReqID: -1, Channel: c.cfg.Channel}
	if r != nil {
		ev.Thread = r.Thread
		ev.ReqID = r.ID
	}
	c.cmdLog(ev)
}
