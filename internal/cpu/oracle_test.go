package cpu

import "math"

// The per-cycle Tick the streaming fast-forward was added to, kept as the
// test oracle together with the stepping functions it drives: every Tick
// call on a Core must leave it in exactly the state refTick leaves an
// identical Core in, with the same memory-port calls in the same order.

func (c *Core) refTick(start int64, n int) {
	end := start + int64(n)
	c.blockedUntil = 0
	c.portStalled = false
	for cyc := start; cyc < end; cyc++ {
		wasMidItem := c.fetchPending
		loadsCompleted := c.stats.LoadsCompleted
		loadsIssued := c.stats.LoadsIssued
		writesIssued := c.stats.WritesIssued
		instructions := c.stats.Instructions
		windowCount := c.windowCount
		memStall := c.stats.MemStallCycles
		storeStall := c.stats.StoreStallCycles

		if p, ok := c.port.(*scriptPort); ok {
			p.now = cyc
		}
		c.refDeliver(cyc)
		c.refFetch()
		c.refCommit()
		c.stats.Cycles++

		if !wasMidItem || !c.fetchPending ||
			loadsCompleted != c.stats.LoadsCompleted ||
			loadsIssued != c.stats.LoadsIssued ||
			writesIssued != c.stats.WritesIssued ||
			instructions != c.stats.Instructions ||
			windowCount != c.windowCount {
			continue
		}
		wake := int64(math.MaxInt64)
		if c.cLen > 0 {
			wake = c.completions[c.cHead].at
		}
		if wake >= end {
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

func (c *Core) refDeliver(cyc int64) {
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

func (c *Core) refFetch() {
	budget := c.cfg.CommitWidth
	memOpDone := false
	for budget > 0 {
		if !c.fetchPending {
			c.fetchItem = c.trace.Next()
			c.fetchPending = true
			if c.fetchItem.NonMem == 0 && !c.fetchItem.HasAccess {
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
				return
			}
			c.refAppendNonMem(take)
			it.NonMem -= take
			budget -= int(take)
			continue
		}
		if !it.HasAccess {
			c.fetchPending = false
			continue
		}
		if memOpDone {
			return
		}
		if c.windowCount >= c.cfg.WindowSize {
			return
		}
		if it.Access.IsWrite {
			c.pushEntry(entry{kind: entryStore, addr: it.Access.Addr})
			c.windowCount++
		} else {
			if c.outstanding >= c.cfg.MSHRs {
				return
			}
			if c.cfg.MaxPerBank > 0 && c.bankLoad(it.Access.Bank) >= c.cfg.MaxPerBank {
				return
			}
			slot := c.wHead + c.wLen
			if slot >= len(c.window) {
				slot -= len(c.window)
			}
			if !c.port.IssueRead(c.id, it.Access.Addr, slot) {
				c.portStalled = true
				return
			}
			c.pushEntry(entry{kind: entryLoad, addr: it.Access.Addr, bank: it.Access.Bank, pending: true, issued: true})
			c.windowCount++
			c.outstanding++
			c.bankDelta(it.Access.Bank, 1)
			c.stats.LoadsIssued++
		}
		memOpDone = true
		budget--
		c.fetchPending = false
	}
}

func (c *Core) refAppendNonMem(n int64) {
	if tail := c.tail(); tail != nil && tail.kind == entryNonMem {
		tail.count += n
		c.windowCount += int(n)
		return
	}
	c.pushEntry(entry{kind: entryNonMem, count: n})
	c.windowCount += int(n)
}

func (c *Core) refCommit() {
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
			c.popHead()
			c.windowCount--
			c.stats.Instructions++
			committed++
			budget--
		}
	}
}
