package sched

import (
	"math/bits"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// STFM implements the stall-time fair memory scheduler of Mutlu &
// Moscibroda ("Stall-time fair memory access scheduling for chip
// multiprocessors", MICRO 2007), the best previous scheduler the PAR-BS
// paper compares against.
//
// STFM estimates, inside the controller, each thread's memory slowdown
// S = Tshared/Talone, where Tshared is the memory stall time the thread
// experiences sharing the DRAM system and Talone is an estimate of its
// stall time had it run alone. When the ratio between the maximum and
// minimum slowdown exceeds alpha, the scheduler switches from FR-FCFS to a
// fairness mode that prioritizes the most-slowed thread.
//
// Estimation model (documented approximations, following the descriptions
// in both papers):
//
//   - Tshared accrues one cycle for every DRAM cycle in which the thread
//     has at least one buffered read (the thread is memory-stalled). The
//     accrual is settled in closed form over the cycles the next-event
//     clock elides (see accrue), so STFM is a memctrl.NextEventer whose
//     only self-driven event is counter ageing.
//   - Talone = Tshared - TInterference. Interference accrues when a command
//     is issued for another thread: threads waiting on the same bank are
//     charged the command's duration, and threads waiting on other banks
//     are charged the data-bus occupancy of CAS commands. Each charge is
//     divided by the victim's current bank-parallelism estimate (the number
//     of banks it has requests in), mirroring STFM's parallelism-scaled
//     interference accounting — the heuristic whose inaccuracy for
//     high-BLP threads (e.g. mcf) the PAR-BS paper highlights.
//   - Counters are halved every IntervalLength cycles so the estimate
//     tracks phase changes.
//
// Thread weights (Figure 14) scale perceived slowdowns: a weight-w thread's
// slowdown is inflated as 1 + (S-1)*w, so higher-weight threads hit the
// fairness threshold earlier and receive proportionally better service.
type STFM struct {
	// Alpha is the unfairness threshold; the paper uses 1.10.
	Alpha float64
	// IntervalLength is the counter-aging period in DRAM cycles; the paper
	// uses 2^24 processor cycles (2^21 DRAM cycles at a 10:1 clock ratio).
	IntervalLength int64

	weights []float64
	ctrl    *memctrl.Controller

	shared       []float64 // per-thread stall cycles while sharing
	interference []float64 // per-thread estimated extra stall cycles

	unfair     bool
	slowest    int
	burst      int64
	nextAgeing int64
	// last is the cycle through which shared has accrued.
	last int64
	// epoch versions the (unfair, slowest) decision for the controller's
	// candidate cache; see OrderEpoch.
	epoch uint64
}

// NewSTFM returns an STFM scheduler with the paper's parameters
// (alpha = 1.10, IntervalLength = 2^24 CPU cycles) and equal weights.
func NewSTFM() *STFM {
	return &STFM{Alpha: 1.10, IntervalLength: 1 << 21}
}

// NewSTFMWeighted returns STFM with per-thread weights.
func NewSTFMWeighted(weights []float64) *STFM {
	s := NewSTFM()
	s.weights = append([]float64(nil), weights...)
	return s
}

// Name implements memctrl.Policy.
func (s *STFM) Name() string { return "STFM" }

// OnAttach sizes the per-thread estimators.
func (s *STFM) OnAttach(c *memctrl.Controller) {
	s.ctrl = c
	threads := c.NumThreads()
	if s.weights == nil {
		s.weights = equalWeights(threads)
	}
	if err := validateWeights(s.weights, threads); err != nil {
		panic(err)
	}
	s.shared = make([]float64, threads)
	s.interference = make([]float64, threads)
	s.burst = c.Device().BurstCycles()
	s.nextAgeing = s.IntervalLength
	s.last = -1
}

// OnEnqueue settles the stall clocks through the cycle before the request
// arrived, over which the reader set was the one before the enqueue: the
// controller has already counted the request, so its thread is left out
// if this is its only buffered read.
func (s *STFM) OnEnqueue(r *memctrl.Request, now int64) {
	newcomer := -1
	if s.ctrl.ReadsPerThread(r.Thread) == 1 {
		newcomer = r.Thread
	}
	s.accrue(now-1, newcomer)
}

// accrue advances the shared stall clock of every thread with a buffered
// read, except skip, through cycle `to`: the cycles (last, to], none of
// which saw a command issue or an enqueue (the controller ticks, and so
// calls OnCycle, on every cycle with an issue; OnEnqueue settles before an
// enqueue), so the reader set was constant over them.
func (s *STFM) accrue(to int64, skip int) {
	k := to - s.last
	if k <= 0 {
		return
	}
	s.last = to
	for w, word := range s.ctrl.ThreadsWithReads() {
		for ; word != 0; word &= word - 1 {
			if th := w<<6 | bits.TrailingZeros64(word); th != skip {
				s.shared[th] = addCycles(s.shared[th], k)
			}
		}
	}
}

// addCycles returns x after k per-cycle increments by one. The closed form
// x+k rounds once where the steps may round k times, so it is used only when
// it is exact and below 2^53: then every partial sum is exact too (each has
// x's fractional bits and a magnitude no larger than the total), and the
// steps agree with it bit for bit. Fast2Sum's error term decides exactness.
func addCycles(x float64, k int64) float64 {
	a, b := x, float64(k)
	if a < b {
		a, b = b, a
	}
	if y := a + b; y < 1<<53 && y-a == b {
		return y
	}
	for ; k > 0; k-- {
		x++
	}
	return x
}

// OnIssue charges interference to the threads delayed by this command.
func (s *STFM) OnIssue(c memctrl.Candidate, now int64) {
	issuer := c.Req.Thread
	bank := c.Req.Loc.Bank
	var dur int64
	t := s.ctrl.Device().Timing()
	switch c.Cmd {
	case dram.CmdActivate:
		dur = t.TRCD
	case dram.CmdPrecharge:
		dur = t.TRP
	default:
		// A CAS occupies its bank for the full access (tBankCAS), not just
		// the burst; same-bank waiters are delayed by that much.
		dur = t.TBankCAS
		if dur < s.burst {
			dur = s.burst
		}
	}
	// Only threads with a buffered read can be charged (a same-bank waiter
	// has one by definition), so visit just those.
	for w, word := range s.ctrl.ThreadsWithReads() {
		for ; word != 0; word &= word - 1 {
			th := w<<6 | bits.TrailingZeros64(word)
			if th == issuer {
				continue
			}
			var charge float64
			if s.ctrl.ReadsInBank(th, bank) > 0 {
				charge = float64(dur) // bank interference
			} else if c.Cmd == dram.CmdRead || c.Cmd == dram.CmdWrite {
				charge = float64(s.burst) // bus interference
			} else {
				continue
			}
			s.interference[th] += charge / float64(s.blpEstimate(th))
		}
	}
}

// blpEstimate returns the number of banks the thread currently has requests
// in (at least 1), STFM's bank-parallelism divisor. The controller keeps the
// count as its per-thread-per-bank counters cross zero, so this is O(1).
func (s *STFM) blpEstimate(thread int) int {
	return max(s.ctrl.BanksWithReads(thread), 1)
}

// OnComplete implements memctrl.Policy.
func (s *STFM) OnComplete(*memctrl.Request, int64) {}

// OnCycle accrues stall time, ages counters, and refreshes the fairness
// mode decision. Ageing is a self-driven event (NextPolicyEventAt), so the
// elided cycles accrued here never straddle it.
func (s *STFM) OnCycle(now int64) {
	s.accrue(now, -1)
	if now >= s.nextAgeing {
		for th := range s.shared {
			s.shared[th] /= 2
			s.interference[th] /= 2
		}
		s.nextAgeing = now + s.IntervalLength
	}
	maxS, minS := 0.0, 0.0
	slowest := 0
	for th := range s.shared {
		sd := s.Slowdown(th)
		if th == 0 || sd > maxS {
			maxS = sd
			slowest = th
		}
		if th == 0 || sd < minS {
			minS = sd
		}
	}
	unfair := minS > 0 && maxS/minS > s.Alpha
	if unfair != s.unfair || (unfair && slowest != s.slowest) {
		s.epoch++
	}
	s.unfair, s.slowest = unfair, slowest
}

// NextPolicyEventAt implements memctrl.NextEventer: counter ageing is the
// only change STFM makes on its own. Its stall clocks move every cycle but
// are settled in closed form (accrue), and the (unfair, slowest) pair they
// feed is re-derived at every real tick.
func (s *STFM) NextPolicyEventAt(int64) int64 { return s.nextAgeing }

// OrderEpoch implements memctrl.EpochedPolicy. Better depends on exactly
// two pieces of policy state — the fairness-mode flag and, when it is set,
// the identity of the slowest thread — and OnCycle bumps the epoch whenever
// that pair changes. Everything else Better reads (row-hit status, request
// ID) is invariant between bank events. The pair is a function of the
// current clocks alone and no scan runs on a cycle the next-event clock
// elides, so re-deriving it at the next real tick gives every scan the pair
// per-cycle OnCycle calls would have; a change and change-back inside an
// elided span bumps the epoch less often, which only spares cache rebuilds.
// Between real ticks the pair stays the one the current epoch stands for,
// so enqueue-time cache comparisons are stored under the right epoch.
func (s *STFM) OrderEpoch() uint64 { return s.epoch }

// Slowdown returns the thread's estimated weighted memory slowdown.
func (s *STFM) Slowdown(thread int) float64 {
	sh := s.shared[thread]
	alone := sh - s.interference[thread]
	if alone < 1 {
		alone = 1
	}
	sd := sh / alone
	if sd < 1 {
		sd = 1
	}
	const maxSlowdown = 64 // guard against a vanishing Talone estimate
	if sd > maxSlowdown {
		sd = maxSlowdown
	}
	return 1 + (sd-1)*s.weights[thread]
}

// InFairnessMode reports whether the scheduler is currently prioritizing
// the most-slowed thread rather than running plain FR-FCFS.
func (s *STFM) InFairnessMode() bool { return s.unfair }

// Better implements memctrl.Policy: FR-FCFS normally; in fairness mode,
// the most-slowed thread's requests first, then row-hit, then oldest.
func (s *STFM) Better(a, b memctrl.Candidate) bool {
	if s.unfair {
		as, bs := a.Req.Thread == s.slowest, b.Req.Thread == s.slowest
		if as != bs {
			return as
		}
	}
	if a.IsRowHit() != b.IsRowHit() {
		return a.IsRowHit()
	}
	return a.Req.ID < b.Req.ID
}
