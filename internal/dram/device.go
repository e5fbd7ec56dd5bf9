package dram

import (
	"fmt"
	"math"
)

// RowState classifies the row-buffer state a request finds in its bank.
type RowState int

// Row-buffer states (Section 3 of the paper).
const (
	// RowHit: the request's row is open in the row buffer.
	RowHit RowState = iota
	// RowClosed: no row is open in the bank.
	RowClosed
	// RowConflict: a different row is open in the bank.
	RowConflict
)

// String returns a short name for the row-buffer state.
func (s RowState) String() string {
	switch s {
	case RowHit:
		return "hit"
	case RowClosed:
		return "closed"
	case RowConflict:
		return "conflict"
	default:
		return "???"
	}
}

// bank is the per-bank timing state.
type bank struct {
	open bool
	row  int64

	// Earliest DRAM cycle at which each command class may issue to this bank.
	actAllowed int64
	preAllowed int64
	rdAllowed  int64
	wrAllowed  int64

	// earliest is a cached conservative lower bound on the cycle at which
	// any request-servicing command (ACT/PRE/RD/WR) may legally issue to
	// this bank; see Device.BankReadyAt. Recomputed on every Issue that
	// touches the bank's gates.
	earliest int64
}

// Stats aggregates device-level counters for one run.
type Stats struct {
	Activates  int64
	Precharges int64
	Reads      int64
	Writes     int64
	Refreshes  int64
	BusyCycles int64 // cycles the data bus carried a burst
}

// RowHitRate returns the fraction of CAS commands serviced from an
// already-open row. Every activate is followed by exactly one CAS that
// needed it, so hits = CAS - activates.
func (s Stats) RowHitRate() float64 {
	cas := s.Reads + s.Writes
	if cas == 0 {
		return 0
	}
	hits := cas - s.Activates
	if hits < 0 {
		hits = 0
	}
	return float64(hits) / float64(cas)
}

// Device models one lock-step channel group of DDR2 SDRAM: a set of banks
// sharing a command bus (one command per DRAM cycle) and a data bus.
//
// The controller drives the device with CanIssue/Issue. The device enforces
// every timing constraint; attempting an illegal Issue panics, because a
// scheduler that issues illegal commands is a programming error, not a
// runtime condition.
type Device struct {
	timing Timing
	geom   Geometry
	banks  []bank

	// burst is the effective data-bus occupancy of one burst, after dividing
	// TBurst across the lock-step channels.
	burst int64

	// dataBusFree is the cycle at which the data bus becomes free.
	dataBusFree int64
	// wrToRdAllowed / rdToWrAllowed are channel-level turnaround gates.
	wrToRdAllowed int64
	rdToWrAllowed int64
	// lastCmdCycle enforces one command per DRAM cycle on the command bus.
	lastCmdCycle int64
	// nextCASAllowed enforces tCCD between CAS commands.
	nextCASAllowed int64
	// recent activates for the tFAW window (single rank).
	actWindow    [4]int64
	actWindowIdx int

	stats Stats
	// bankCAS counts CAS commands (reads + writes) issued per bank, for
	// per-bank utilization telemetry.
	bankCAS []int64
}

// NewDevice builds a device from validated timing and geometry.
func NewDevice(t Timing, g Geometry) (*Device, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	burst := t.TBurst / int64(g.Channels)
	if burst < 1 {
		burst = 1
	}
	d := &Device{
		timing:       t,
		geom:         g,
		banks:        make([]bank, g.Banks),
		burst:        burst,
		lastCmdCycle: -1,
		bankCAS:      make([]int64, g.Banks),
	}
	for i := range d.actWindow {
		d.actWindow[i] = -t.TFAW
	}
	d.refreshAllEarliest()
	return d, nil
}

// Timing returns the device's timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// Geometry returns the device's geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// BurstCycles returns the effective data-bus occupancy of one burst.
func (d *Device) BurstCycles() int64 { return d.burst }

// Stats returns a copy of the accumulated counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the accumulated counters, e.g. after warmup. Timing
// state (open rows, bus occupancy) is preserved.
func (d *Device) ResetStats() {
	d.stats = Stats{}
	for i := range d.bankCAS {
		d.bankCAS[i] = 0
	}
}

// BankCAS returns the number of CAS commands issued to the bank since the
// last ResetStats.
func (d *Device) BankCAS(bankID int) int64 { return d.bankCAS[bankID] }

// CopyBankCAS copies the per-bank CAS counters into dst (len == Banks)
// without allocating.
func (d *Device) CopyBankCAS(dst []int64) { copy(dst, d.bankCAS) }

// RowStateOf reports the row-buffer state a request to (bankID,row) sees.
func (d *Device) RowStateOf(bankID int, row int64) RowState {
	b := &d.banks[bankID]
	switch {
	case !b.open:
		return RowClosed
	case b.row == row:
		return RowHit
	default:
		return RowConflict
	}
}

// OpenRow returns the row open in bankID, or -1 when the bank is closed.
func (d *Device) OpenRow(bankID int) int64 {
	b := &d.banks[bankID]
	if !b.open {
		return -1
	}
	return b.row
}

// NextCommand returns the command a request to (bank,row) needs next in
// order to make progress, given the current row-buffer state.
func (d *Device) NextCommand(bankID int, row int64, isWrite bool) Command {
	switch d.RowStateOf(bankID, row) {
	case RowHit:
		if isWrite {
			return CmdWrite
		}
		return CmdRead
	case RowClosed:
		return CmdActivate
	default:
		return CmdPrecharge
	}
}

// fourthLastActivate returns the oldest activate in the tFAW window.
func (d *Device) fourthLastActivate() int64 {
	return d.actWindow[d.actWindowIdx]
}

// BankReadyAt returns a conservative lower bound on the DRAM cycle at which
// any request-servicing command (ACT, PRE, RD, WR) may legally issue to the
// bank: before this cycle every such command is guaranteed illegal, at or
// after it per-command CanIssue must still be consulted (channel-level
// constraints — the command bus, tCCD, bus turnaround and data-bus occupancy
// — are not folded in). Schedulers use it to skip whole banks without
// probing each buffered request. CmdRefresh is not covered; it has its own
// all-bank legality rule.
func (d *Device) BankReadyAt(bankID int) int64 {
	return d.banks[bankID].earliest
}

// CommandBusFree reports whether the shared command bus can carry a command
// at cycle now (the bus carries at most one command per DRAM cycle).
func (d *Device) CommandBusFree(now int64) bool { return now > d.lastCmdCycle }

// actReadyAt folds the bank and channel activate gates over the floor t.
func (d *Device) actReadyAt(b *bank, t int64) int64 {
	if b.actAllowed > t {
		t = b.actAllowed
	}
	if w := d.actWindow[d.actWindowIdx] + d.timing.TFAW; w > t {
		t = w
	}
	return t
}

// readReadyAt folds the bank and channel read-CAS gates over the floor t.
func (d *Device) readReadyAt(b *bank, t int64) int64 {
	if b.rdAllowed > t {
		t = b.rdAllowed
	}
	if d.nextCASAllowed > t {
		t = d.nextCASAllowed
	}
	if d.wrToRdAllowed > t {
		t = d.wrToRdAllowed
	}
	if v := d.dataBusFree - d.timing.TCL; v > t {
		t = v
	}
	return t
}

// writeReadyAt folds the bank and channel write-CAS gates over the floor t.
func (d *Device) writeReadyAt(b *bank, t int64) int64 {
	if b.wrAllowed > t {
		t = b.wrAllowed
	}
	if d.nextCASAllowed > t {
		t = d.nextCASAllowed
	}
	if d.rdToWrAllowed > t {
		t = d.rdToWrAllowed
	}
	if v := d.dataBusFree - d.timing.TCWL; v > t {
		t = v
	}
	return t
}

// ScanBank returns, in one call, everything the controller's candidate scan
// needs from one bank: the open row (-1 when the bank is closed) and the
// exact earliest cycles at which the command classes the bank's state admits
// may legally issue — the activate bound when closed, the CAS (read or
// write, per isWrite) and precharge bounds when open, the CAS bound for the
// open row. Bounds of classes the state precludes are math.MaxInt64.
//
// Every timing gate is an absolute cycle value that changes only inside
// Issue, so between commands each bound t is constant and satisfies, for
// every cycle n, CanIssue(n, cmd, bankID, openRow) == (n >= t) (pinned by
// TestReadyAtMatchesCanIssue). That makes the bounds an exact event source
// for the next-event clock: a scan's minimum bound can never step over the
// cycle at which a command first becomes legal. CmdRefresh is not covered;
// refresh sequencing has its own all-bank rule. One call per scanned bank
// keeps the scheduler's inner loop to one bank-struct walk.
func (d *Device) ScanBank(bankID int, isWrite bool) (openRow, tAct, tCAS, tPre int64) {
	b := &d.banks[bankID]
	bus := d.lastCmdCycle + 1
	if !b.open {
		return -1, d.actReadyAt(b, bus), math.MaxInt64, math.MaxInt64
	}
	if isWrite {
		tCAS = d.writeReadyAt(b, bus)
	} else {
		tCAS = d.readReadyAt(b, bus)
	}
	tPre = bus
	if b.preAllowed > tPre {
		tPre = b.preAllowed
	}
	return b.row, math.MaxInt64, tCAS, tPre
}

// refreshEarliest recomputes the bank's cached readiness lower bound from
// its timing gates and the device's tFAW window.
func (d *Device) refreshEarliest(bankID int) {
	b := &d.banks[bankID]
	if b.open {
		// An open bank can take a precharge or a CAS to the open row.
		e := b.preAllowed
		if b.rdAllowed < e {
			e = b.rdAllowed
		}
		if b.wrAllowed < e {
			e = b.wrAllowed
		}
		b.earliest = e
		return
	}
	// A closed bank can only take an activate, gated by tRC/tRP/tRRD (all
	// folded into actAllowed) and the four-activate window.
	e := b.actAllowed
	if w := d.fourthLastActivate() + d.timing.TFAW; w > e {
		e = w
	}
	b.earliest = e
}

// refreshAllEarliest recomputes every bank's cached readiness bound, after
// device-wide gate updates (activates move every bank's tRRD/tFAW gates,
// refresh moves every actAllowed).
func (d *Device) refreshAllEarliest() {
	for i := range d.banks {
		d.refreshEarliest(i)
	}
}

// CanIssue reports whether cmd may legally issue to bankID at cycle now.
// For CAS commands, row must match the open row.
func (d *Device) CanIssue(now int64, cmd Command, bankID int, row int64) bool {
	if now <= d.lastCmdCycle {
		return false // command bus carries one command per cycle
	}
	b := &d.banks[bankID]
	switch cmd {
	case CmdActivate:
		if b.open {
			return false
		}
		if now < b.actAllowed {
			return false
		}
		if d.fourthLastActivate()+d.timing.TFAW > now {
			return false
		}
		return true
	case CmdPrecharge:
		return b.open && now >= b.preAllowed
	case CmdRead:
		if !b.open || b.row != row || now < b.rdAllowed || now < d.nextCASAllowed {
			return false
		}
		if now < d.wrToRdAllowed {
			return false
		}
		return now+d.timing.TCL >= d.dataBusFree
	case CmdWrite:
		if !b.open || b.row != row || now < b.wrAllowed || now < d.nextCASAllowed {
			return false
		}
		if now < d.rdToWrAllowed {
			return false
		}
		return now+d.timing.TCWL >= d.dataBusFree
	case CmdRefresh:
		// All-bank refresh: every bank must be precharged and past its
		// activate gate (bank/rank idle).
		for i := range d.banks {
			if d.banks[i].open || now < d.banks[i].actAllowed {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Issue applies cmd to bankID at cycle now and returns the cycle at which the
// command's effect completes: for CAS commands, the end of the data burst
// (when the last beat is on the bus); for ACT/PRE, the cycle after which the
// bank can accept the follow-up command. Issue panics if the command is not
// legal at now — use CanIssue first.
func (d *Device) Issue(now int64, cmd Command, bankID int, row int64) int64 {
	if !d.CanIssue(now, cmd, bankID, row) {
		panic(fmt.Sprintf("dram: illegal %s to bank %d row %d at cycle %d", cmd, bankID, row, now))
	}
	d.lastCmdCycle = now
	t := &d.timing
	b := &d.banks[bankID]
	switch cmd {
	case CmdActivate:
		b.open = true
		b.row = row
		b.rdAllowed = max64(b.rdAllowed, now+t.TRCD)
		b.wrAllowed = max64(b.wrAllowed, now+t.TRCD)
		b.preAllowed = max64(b.preAllowed, now+t.TRAS)
		b.actAllowed = max64(b.actAllowed, now+t.TRC)
		for i := range d.banks {
			if i != bankID {
				d.banks[i].actAllowed = max64(d.banks[i].actAllowed, now+t.TRRD)
			}
		}
		d.actWindow[d.actWindowIdx] = now
		d.actWindowIdx = (d.actWindowIdx + 1) % len(d.actWindow)
		d.refreshAllEarliest() // tRRD and the tFAW window moved every bank
		d.stats.Activates++
		return now + t.TRCD
	case CmdPrecharge:
		b.open = false
		b.actAllowed = max64(b.actAllowed, now+t.TRP)
		d.refreshEarliest(bankID)
		d.stats.Precharges++
		return now + t.TRP
	case CmdRead:
		start := now + t.TCL
		end := start + d.burst
		d.dataBusFree = end
		d.stats.BusyCycles += d.burst
		d.nextCASAllowed = max64(d.nextCASAllowed, now+t.TCCD)
		d.rdToWrAllowed = max64(d.rdToWrAllowed, end+t.TRTW-t.TCWL)
		b.preAllowed = max64(b.preAllowed, now+t.TRTP, now+t.TBankCAS)
		b.rdAllowed = max64(b.rdAllowed, now+t.TBankCAS)
		b.wrAllowed = max64(b.wrAllowed, now+t.TBankCAS)
		d.refreshEarliest(bankID)
		d.stats.Reads++
		d.bankCAS[bankID]++
		return end
	case CmdWrite:
		start := now + t.TCWL
		end := start + d.burst
		d.dataBusFree = end
		d.stats.BusyCycles += d.burst
		d.nextCASAllowed = max64(d.nextCASAllowed, now+t.TCCD)
		d.wrToRdAllowed = max64(d.wrToRdAllowed, end+t.TWTR)
		b.preAllowed = max64(b.preAllowed, end+t.TWR, now+t.TBankCAS)
		b.rdAllowed = max64(b.rdAllowed, now+t.TBankCAS)
		b.wrAllowed = max64(b.wrAllowed, now+t.TBankCAS)
		d.refreshEarliest(bankID)
		d.stats.Writes++
		d.bankCAS[bankID]++
		return end
	case CmdRefresh:
		for i := range d.banks {
			d.banks[i].actAllowed = max64(d.banks[i].actAllowed, now+t.TRFC)
		}
		d.refreshAllEarliest()
		d.stats.Refreshes++
		return now + t.TRFC
	default:
		panic("dram: unsupported command " + cmd.String())
	}
}

// IssueAutoPrecharge issues a CAS with auto-precharge (RDA/WRA): the bank's
// row closes automatically once the access completes, as under a
// closed-page controller policy. Legality is the same as for the plain CAS.
// It returns the data-burst end cycle.
func (d *Device) IssueAutoPrecharge(now int64, cmd Command, bankID int, row int64) int64 {
	if cmd != CmdRead && cmd != CmdWrite {
		panic("dram: auto-precharge applies to CAS commands only, got " + cmd.String())
	}
	end := d.Issue(now, cmd, bankID, row)
	t := &d.timing
	b := &d.banks[bankID]
	b.open = false
	// The implicit precharge starts when the access's recovery window ends
	// (tRTP for reads, tWR after the burst for writes — already folded into
	// preAllowed by Issue) and takes tRP.
	b.actAllowed = max64(b.actAllowed, b.preAllowed+t.TRP)
	d.refreshEarliest(bankID)
	d.stats.Precharges++
	return end
}

func max64(vals ...int64) int64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
