// Package cpu models the processing cores of the paper's baseline CMP
// (Table 2) at the abstraction level DRAM-scheduling studies need: a
// 128-entry instruction window with in-order commit (3 instructions per
// cycle), a cap of 32 outstanding misses (MSHRs), and precise stall
// accounting — the core stalls when the oldest instruction in the window is
// a load whose DRAM request is outstanding (Section 2 of the paper).
//
// Cores are trace-driven: a TraceSource supplies an instruction stream of
// non-memory instruction runs punctuated by memory accesses. Multiple
// last-level-cache misses inside the window overlap naturally, producing
// the memory-level parallelism whose preservation PAR-BS is about.
package cpu

import (
	"fmt"
	"math"

	"repro/internal/memctrl"
)

// Config sizes a core. Use DefaultConfig for the paper's baseline.
type Config struct {
	// WindowSize is the instruction window capacity (Table 2: 128).
	WindowSize int
	// CommitWidth is the per-cycle fetch and commit width (Table 2: 3).
	CommitWidth int
	// MSHRs caps outstanding load misses (Table 2: 32).
	MSHRs int
	// MaxPerBank caps outstanding load misses per DRAM bank (0 = no cap,
	// the default). A cap of 1 is an ablation knob that models fully
	// dependent per-bank miss chains; the baseline instead relies on the
	// device's non-pipelined banks (dram.Timing.TBankCAS) to reproduce the
	// paper's per-request stall times.
	MaxPerBank int
}

// DefaultConfig returns the paper's baseline core configuration.
func DefaultConfig() Config {
	return Config{WindowSize: 128, CommitWidth: 3, MSHRs: 32}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.WindowSize <= 0 || c.CommitWidth <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cpu: config fields must be positive: %+v", c)
	}
	if c.MaxPerBank < 0 {
		return fmt.Errorf("cpu: MaxPerBank must be non-negative, got %d", c.MaxPerBank)
	}
	return nil
}

// Access is one memory access in a trace.
type Access struct {
	// Addr is the physical byte address of the cache line.
	Addr int64
	// Bank is the DRAM bank the address maps to; the trace generator fills
	// it in so the core can enforce Config.MaxPerBank.
	Bank int
	// IsWrite marks a writeback (dirty eviction) rather than a load miss.
	IsWrite bool
}

// Item is one trace element: a run of non-memory instructions followed by
// one memory access. A terminal run with no access has HasAccess false.
type Item struct {
	// NonMem is the number of non-memory instructions preceding the access.
	NonMem int64
	// Access is the memory access, valid when HasAccess.
	Access Access
	// HasAccess distinguishes a trailing instruction run from an access.
	HasAccess bool
}

// TraceSource supplies an unbounded instruction stream.
type TraceSource interface {
	// Next returns the next trace item. Sources for finite traces may
	// return items with HasAccess == false forever once exhausted.
	Next() Item
}

// MemPort is the core's connection to the memory system.
type MemPort interface {
	// IssueRead sends a load miss to DRAM, or returns false when the memory
	// system cannot accept the request this cycle (buffer full); the core
	// retries. tag is the issuing core's window slot: the port must store it
	// in the request's Tag field before any completion for the request can
	// be signaled, so Complete can route the data back slot-directly.
	IssueRead(thread int, addr int64, tag int) bool
	// IssueWrite sends a writeback. It returns false when the write buffer
	// is full; the core stalls the store's commit and retries.
	IssueWrite(thread int, addr int64) bool
}

// Stats aggregates a core's execution counters.
type Stats struct {
	// Cycles is the number of CPU cycles simulated.
	Cycles int64
	// Instructions is the number of committed instructions.
	Instructions int64
	// MemStallCycles counts cycles in which nothing committed because the
	// oldest instruction was a load with an outstanding DRAM request —
	// the paper's memory stall time.
	MemStallCycles int64
	// StoreStallCycles counts cycles blocked on a full write buffer.
	StoreStallCycles int64
	// LoadsIssued counts load misses sent to DRAM.
	LoadsIssued int64
	// LoadsCompleted counts load misses whose data returned.
	LoadsCompleted int64
	// WritesIssued counts writebacks sent to DRAM.
	WritesIssued int64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MCPI returns memory stall cycles per instruction, the paper's memory
// intensity metric (Table 3).
func (s Stats) MCPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.MemStallCycles) / float64(s.Instructions)
}

// MPKI returns load misses per 1000 instructions (Table 3's L2 MPKI).
func (s Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.LoadsIssued) / float64(s.Instructions)
}

// ASTPerReq returns the average stall time per DRAM request in CPU cycles
// (Table 3 and Table 4's "AST/req").
func (s Stats) ASTPerReq() float64 {
	if s.LoadsIssued == 0 {
		return 0
	}
	return float64(s.MemStallCycles) / float64(s.LoadsIssued)
}

// Sub returns s - o field-wise; used to discard warmup.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Cycles:           s.Cycles - o.Cycles,
		Instructions:     s.Instructions - o.Instructions,
		MemStallCycles:   s.MemStallCycles - o.MemStallCycles,
		StoreStallCycles: s.StoreStallCycles - o.StoreStallCycles,
		LoadsIssued:      s.LoadsIssued - o.LoadsIssued,
		LoadsCompleted:   s.LoadsCompleted - o.LoadsCompleted,
		WritesIssued:     s.WritesIssued - o.WritesIssued,
	}
}

type entryKind uint8

const (
	entryNonMem entryKind = iota
	entryLoad
	entryStore
)

type entry struct {
	kind  entryKind
	count int64 // remaining instructions for entryNonMem
	addr  int64
	bank  int
	// pending marks a load whose data has not returned.
	pending bool
	// issued marks a load whose request was accepted by the memory system.
	issued bool
}

// Core is one trace-driven processing core.
//
// The instruction window and the completion queue are value-typed ring
// buffers: the core's per-CPU-cycle loop is the simulator's innermost hot
// path (cores tick CPUCyclesPerDRAM times per controller cycle), and the
// earlier pointer-per-entry window both allocated on every fetch and cost a
// cache miss on every head inspection.
type Core struct {
	cfg   Config
	id    int
	trace TraceSource
	port  MemPort
	// window is a FIFO ring of wLen entries, oldest at slot wHead; a window
	// entry occupies its slot until retired, so slots are stable handles.
	// Capacity is WindowSize: every entry covers at least one instruction.
	window []entry
	wHead  int
	wLen   int
	// windowCount is the number of instructions occupying the window
	// (non-memory entries count their run length).
	windowCount int
	outstanding int // loads in flight (MSHR occupancy)
	// fetchItem is the partially-consumed current trace item.
	fetchItem    Item
	fetchPending bool
	// perBank tracks outstanding loads per DRAM bank for Config.MaxPerBank;
	// it grows on demand to the highest bank index seen.
	perBank []int
	// completions due for delivery, a FIFO ring of cLen entries starting at
	// cHead (bursts complete in order).
	completions []completion
	cHead, cLen int
	stats       Stats
	// blockedUntil is set when the last Tick call ended in a provable stall:
	// the CPU cycle before which the core cannot make progress (MaxInt64 for
	// "until something external happens"), or 0 when the core was still
	// progressing. See BlockedUntil.
	blockedUntil int64
	// portStalled records that some cycle of the last Tick call had a memory
	// port call rejected (read buffer or write buffer full). See
	// BlockedOnPort.
	portStalled bool
	// tickEnd is the CPU cycle the last Tick call ended at (see Horizon).
	tickEnd int64
	// fetched counts every instruction ever fetched into the window, so
	// fetched−windowCount is the count ever committed. stores is a FIFO ring
	// of sLen entries starting at sHead holding, for each store in the
	// window, oldest first, the value fetched had when the store entered.
	fetched     int64
	stores      []int64
	sHead, sLen int
}

type completion struct {
	at   int64
	slot int // window slot of the completed load (the request's Tag)
}

// NewCore builds a core reading from trace and issuing to port.
func NewCore(id int, cfg Config, trace TraceSource, port MemPort) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{
		cfg:         cfg,
		id:          id,
		trace:       trace,
		port:        port,
		window:      make([]entry, cfg.WindowSize),
		completions: make([]completion, cfg.MSHRs),
		stores:      make([]int64, cfg.WindowSize),
	}, nil
}

// head returns the oldest window entry; the window must be non-empty.
func (c *Core) head() *entry { return &c.window[c.wHead] }

// pushEntry appends an entry at the window tail and returns its slot. The
// ring cannot overflow — every entry occupies at least one instruction and
// fetch admits at most WindowSize instructions — but a violated invariant
// must fail loudly rather than overwrite the oldest instruction.
func (c *Core) pushEntry(e entry) int {
	if c.wLen == len(c.window) {
		panic("cpu: instruction window ring overflow")
	}
	slot := c.wHead + c.wLen
	if slot >= len(c.window) {
		slot -= len(c.window)
	}
	c.window[slot] = e
	c.wLen++
	return slot
}

// tail returns the newest window entry, or nil when the window is empty.
func (c *Core) tail() *entry {
	if c.wLen == 0 {
		return nil
	}
	slot := c.wHead + c.wLen - 1
	if slot >= len(c.window) {
		slot -= len(c.window)
	}
	return &c.window[slot]
}

// pushCompletion appends to the completion ring, growing it if the
// controller ever outpaces the MSHR-sized pre-allocation.
func (c *Core) pushCompletion(comp completion) {
	if c.cLen == len(c.completions) {
		grown := make([]completion, 2*len(c.completions))
		for i := 0; i < c.cLen; i++ {
			grown[i] = c.completions[(c.cHead+i)%len(c.completions)]
		}
		c.completions, c.cHead = grown, 0
	}
	slot := c.cHead + c.cLen
	if slot >= len(c.completions) {
		slot -= len(c.completions)
	}
	c.completions[slot] = comp
	c.cLen++
}

// ID returns the core's thread index.
func (c *Core) ID() int { return c.id }

// Stats returns the accumulated counters.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes the counters, e.g. after warmup. Window contents and
// in-flight requests are preserved.
func (c *Core) ResetStats() { c.stats = Stats{} }

// Outstanding returns current MSHR occupancy (loads in flight).
func (c *Core) Outstanding() int { return c.outstanding }

// WindowOccupancy returns the number of instructions currently occupying
// the instruction window.
func (c *Core) WindowOccupancy() int { return c.windowCount }

// Complete schedules delivery of a finished DRAM read at CPU cycle `at`.
// The controller's completion callback must route requests to the issuing
// core. Only the request's Tag (the window slot recorded at issue) is read
// and the handle is not retained, so the memory system is free to recycle
// the request once every completion callback for it has returned.
func (c *Core) Complete(req *memctrl.Request, at int64) {
	c.pushCompletion(completion{at: at, slot: req.Tag})
}

// Tick simulates CPU cycles [start, start+n). The sim layer calls it once
// per evaluated DRAM cycle with the CPU:DRAM clock ratio, or once for a
// longer span it deferred because the core was port-quiet over it (see
// Horizon and BlockedUntil); both step the same cycles.
//
// Stalled cycles are fast-forwarded: within one Tick call nothing outside
// the core can change (the controller ticks only after every core has, and
// completions are scheduled with explicit future timestamps), so once a
// cycle provably makes no progress, every following cycle up to the next
// scheduled completion evolves identically — only the cycle and stall
// counters advance. Memory-bound cores spend most of their time in exactly
// this state, and replaying it cycle by cycle dominated simulator cost.
//
// Streaming cycles are fast-forwarded too: a run of cycles that each fetch
// and commit exactly CommitWidth non-memory instructions, with no delivery
// and no memory-port call, is applied in closed form (see stream).
func (c *Core) Tick(start int64, n int) {
	end := start + int64(n)
	c.blockedUntil = 0
	c.portStalled = false
	c.tickEnd = end
	for cyc := start; cyc < end; cyc++ {
		if k := c.stream(cyc, end); k > 0 {
			cyc += k - 1
			continue
		}
		wasMidItem := c.fetchPending
		loadsCompleted := c.stats.LoadsCompleted
		loadsIssued := c.stats.LoadsIssued
		writesIssued := c.stats.WritesIssued
		instructions := c.stats.Instructions
		windowCount := c.windowCount
		memStall := c.stats.MemStallCycles
		storeStall := c.stats.StoreStallCycles

		c.deliver(cyc)
		c.fetch()
		c.commit(cyc)
		c.stats.Cycles++

		// Progress happened (or the fetch engine consumed trace items, which
		// skipping would replay incorrectly): keep stepping cycle by cycle.
		if !wasMidItem || !c.fetchPending ||
			loadsCompleted != c.stats.LoadsCompleted ||
			loadsIssued != c.stats.LoadsIssued ||
			writesIssued != c.stats.WritesIssued ||
			instructions != c.stats.Instructions ||
			windowCount != c.windowCount {
			continue
		}
		// Pure stall cycle: nothing can unblock before the next completion.
		wake := int64(math.MaxInt64)
		if c.cLen > 0 {
			wake = c.completions[c.cHead].at
		}
		if wake >= end {
			// Blocked through the rest of this call: account the remaining
			// cycles in closed form and publish the wake bound so the
			// next-event clock can skip whole DRAM cycles (see BlockedUntil).
			skip := end - cyc - 1
			c.stats.Cycles += skip
			c.stats.MemStallCycles += skip * (c.stats.MemStallCycles - memStall)
			c.stats.StoreStallCycles += skip * (c.stats.StoreStallCycles - storeStall)
			c.blockedUntil = wake
			return
		}
		if skip := wake - cyc - 1; skip > 0 {
			c.stats.Cycles += skip
			c.stats.MemStallCycles += skip * (c.stats.MemStallCycles - memStall)
			c.stats.StoreStallCycles += skip * (c.stats.StoreStallCycles - storeStall)
			cyc += skip
		}
	}
}

// stream applies the longest span of k cycles starting at cyc (k ≤ end−cyc)
// in which every cycle fetches exactly CommitWidth non-memory instructions of
// the current item and commits exactly CommitWidth instructions from the
// window head, and returns k (0 when cycle cyc is not such a cycle).
//
// Such cycles deliver nothing, call no memory port and consume no trace
// item, so k of them amount to appending k·w instructions to the window and
// retiring k·w from its head. The window stays non-empty throughout (each
// cycle's commit leaves at least the instructions that were there before
// its fetch), so per-cycle stepping merges every fetch after the first into
// one tail entry at the slot this closed form uses: window slots, which are
// the Tags completions are routed by, are assigned identically.
func (c *Core) stream(cyc, end int64) int64 {
	w := int64(c.cfg.CommitWidth)
	it := &c.fetchItem
	if !c.fetchPending || c.wLen == 0 || it.NonMem < w ||
		int64(c.cfg.WindowSize-c.windowCount) < w {
		return 0
	}
	k := end - cyc
	if m := it.NonMem / w; m < k {
		k = m
	}
	if c.cLen > 0 {
		if d := c.completions[c.cHead].at - cyc; d < k {
			k = d
		}
	}
	if k <= 0 {
		return 0
	}
	// Count the instructions committable without a port call or a stall:
	// the prefix up to the first pending load or store. If it reaches the
	// tail, everything fetched during the span is committable as well.
	need, free := k*w, int64(0)
	for i, slot := 0, c.wHead; i < c.wLen && free < need; i++ {
		e := &c.window[slot]
		if e.kind == entryNonMem {
			free += e.count
		} else if e.kind == entryLoad && !e.pending {
			free++
		} else {
			k = free / w
			break
		}
		if slot++; slot == len(c.window) {
			slot = 0
		}
	}
	if k == 0 {
		return 0
	}

	n := k * w
	it.NonMem -= n
	c.appendNonMem(n)
	for left := n; left > 0; {
		head := c.head()
		if head.kind != entryNonMem {
			c.popHead() // a completed load
			left--
			continue
		}
		take := min(left, head.count)
		head.count -= take
		left -= take
		if head.count == 0 {
			c.popHead()
		}
	}
	c.windowCount -= int(n)
	c.stats.Instructions += n
	c.stats.Cycles += k
	return k
}

// BlockedUntil reports the core's stall bound after its last Tick call: 0
// when the core was still making progress (then only Horizon bounds its
// next port call), otherwise a CPU cycle strictly before which the core is
// guaranteed to do nothing — no commits, no fetches, and in particular no
// memory-port calls.
// Completions queued by the controller after the Tick (via Complete) lower
// the bound, so the returned value stays safe across the tick/controller
// ordering within one DRAM cycle. math.MaxInt64 means the core can only be
// unblocked by an external event (a buffer slot freeing on a command issue),
// which the caller must treat as ending any skip span.
func (c *Core) BlockedUntil() int64 {
	b := c.blockedUntil
	if b == 0 {
		return 0
	}
	if c.cLen > 0 {
		if at := c.completions[c.cHead].at; at < b {
			b = at
		}
	}
	return b
}

// Horizon reports the first CPU cycle, at or after the end of the last Tick
// call, at which the core could call the memory port. Fetch takes at most
// CommitWidth instructions a cycle, so the current item's access cannot
// issue before its NonMem run is fetched; commit retires at most CommitWidth
// a cycle, so no store reaches the port before the instructions ahead of the
// oldest one have committed. Both hold however fast loads complete, so
// completions queued after the Tick cannot move the horizon earlier; with no
// item in flight the next fetch may start with an access, and the horizon
// is the Tick's end.
func (c *Core) Horizon() int64 {
	if !c.fetchPending {
		return c.tickEnd
	}
	ahead := c.fetchItem.NonMem
	if c.sLen > 0 {
		ahead = min(ahead, c.stores[c.sHead]-(c.fetched-int64(c.windowCount)))
	}
	return c.tickEnd + ahead/int64(c.cfg.CommitWidth)
}

// BlockedOnPort reports whether any cycle of the last Tick call had a memory
// port call rejected. A port-blocked core can be unblocked by a command
// issuing at the controller (a CAS frees a read-buffer slot, a write issue
// frees a write-buffer slot) — an event BlockedUntil cannot see — so its
// stall bound is only valid over spans in which the whole system is
// quiescent, never for gating this core alone while others keep the
// controller busy. The flag is conservative: it latches on any rejected call
// during the Tick even if the core later progressed past it.
func (c *Core) BlockedOnPort() bool { return c.portStalled }

// deliver marks loads whose data has arrived by cycle cyc.
func (c *Core) deliver(cyc int64) {
	for c.cLen > 0 && c.completions[c.cHead].at <= cyc {
		comp := c.completions[c.cHead]
		c.cHead++
		if c.cHead == len(c.completions) {
			c.cHead = 0
		}
		c.cLen--
		e := &c.window[comp.slot]
		if e.kind != entryLoad || !e.pending {
			panic("cpu: completion routed to a slot with no pending load")
		}
		e.pending = false
		c.outstanding--
		c.bankDelta(e.bank, -1)
		c.stats.LoadsCompleted++
	}
}

// fetch brings up to CommitWidth instructions into the window, issuing load
// misses to the memory system as they enter (at most one memory op per
// cycle, per Table 2).
func (c *Core) fetch() {
	budget := c.cfg.CommitWidth
	memOpDone := false
	for budget > 0 {
		if !c.fetchPending {
			c.fetchItem = c.trace.Next()
			c.fetchPending = true
			if c.fetchItem.NonMem == 0 && !c.fetchItem.HasAccess {
				// Empty item: the source has nothing this cycle. Treat it
				// as a fetch bubble rather than spinning.
				c.fetchPending = false
				return
			}
		}
		it := &c.fetchItem
		if it.NonMem > 0 {
			room := c.cfg.WindowSize - c.windowCount
			take := int64(budget)
			if take > it.NonMem {
				take = it.NonMem
			}
			if take > int64(room) {
				take = int64(room)
			}
			if take == 0 {
				return // window full
			}
			c.appendNonMem(take)
			it.NonMem -= take
			budget -= int(take)
			continue
		}
		if !it.HasAccess {
			// Pure gap item exhausted; move on.
			c.fetchPending = false
			continue
		}
		if memOpDone {
			return // one memory op per cycle
		}
		if c.windowCount >= c.cfg.WindowSize {
			return
		}
		if it.Access.IsWrite {
			slot := c.sHead + c.sLen
			if slot >= len(c.stores) {
				slot -= len(c.stores)
			}
			c.stores[slot] = c.fetched
			c.sLen++
			c.pushEntry(entry{kind: entryStore, addr: it.Access.Addr})
			c.windowCount++
			c.fetched++
		} else {
			if c.outstanding >= c.cfg.MSHRs {
				return // no MSHR: fetch stalls
			}
			if c.cfg.MaxPerBank > 0 && c.bankLoad(it.Access.Bank) >= c.cfg.MaxPerBank {
				return // same-bank dependence: wait for the previous miss
			}
			slot := c.wHead + c.wLen // where pushEntry will place the load
			if slot >= len(c.window) {
				slot -= len(c.window)
			}
			if !c.port.IssueRead(c.id, it.Access.Addr, slot) {
				c.portStalled = true
				return // request buffer full: retry next cycle
			}
			c.pushEntry(entry{kind: entryLoad, addr: it.Access.Addr, bank: it.Access.Bank, pending: true, issued: true})
			c.windowCount++
			c.fetched++
			c.outstanding++
			c.bankDelta(it.Access.Bank, 1)
			c.stats.LoadsIssued++
		}
		memOpDone = true
		budget--
		c.fetchPending = false
	}
}

// appendNonMem adds a run of non-memory instructions, merging with the tail
// entry when possible to keep the window compact.
func (c *Core) appendNonMem(n int64) {
	c.fetched += n
	if tail := c.tail(); tail != nil && tail.kind == entryNonMem {
		tail.count += n
		c.windowCount += int(n)
		return
	}
	c.pushEntry(entry{kind: entryNonMem, count: n})
	c.windowCount += int(n)
}

// commit retires up to CommitWidth instructions from the window head and
// accounts stall cycles.
func (c *Core) commit(cyc int64) {
	budget := c.cfg.CommitWidth
	committed := 0
	for budget > 0 && c.wLen > 0 {
		head := c.head()
		switch head.kind {
		case entryNonMem:
			take := int64(budget)
			if take > head.count {
				take = head.count
			}
			head.count -= take
			c.windowCount -= int(take)
			c.stats.Instructions += take
			committed += int(take)
			budget -= int(take)
			if head.count == 0 {
				c.popHead()
			}
		case entryLoad:
			if head.pending {
				if committed == 0 {
					c.stats.MemStallCycles++
				}
				return
			}
			c.popHead()
			c.windowCount--
			c.stats.Instructions++
			committed++
			budget--
		case entryStore:
			if !c.port.IssueWrite(c.id, head.addr) {
				c.portStalled = true
				if committed == 0 {
					c.stats.StoreStallCycles++
				}
				return
			}
			c.stats.WritesIssued++
			if c.sHead++; c.sHead == len(c.stores) {
				c.sHead = 0
			}
			c.sLen--
			c.popHead()
			c.windowCount--
			c.stats.Instructions++
			committed++
			budget--
		}
	}
}

// popHead retires the oldest window entry, clearing its slot so request
// pointers do not outlive the instruction.
func (c *Core) popHead() {
	c.window[c.wHead] = entry{}
	c.wHead++
	if c.wHead == len(c.window) {
		c.wHead = 0
	}
	c.wLen--
}

// bankLoad returns outstanding loads to bank, growing the table on demand.
func (c *Core) bankLoad(bank int) int {
	if bank < 0 || bank >= len(c.perBank) {
		return 0
	}
	return c.perBank[bank]
}

func (c *Core) bankDelta(bank, d int) {
	if bank < 0 {
		return
	}
	for bank >= len(c.perBank) {
		c.perBank = append(c.perBank, 0)
	}
	c.perBank[bank] += d
}
