package sim

import (
	"sync"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/telemetry"
)

// chanShard is one shard of the run loop: a device (lock-step ganged or one
// independent channel) and its controller, plus the shard-local next-event
// bookkeeping and the buffers that carry cross-shard effects back to the
// run goroutine. Within an evaluated cycle a shard is touched by exactly
// one goroutine.
type chanShard struct {
	ctrl *memctrl.Controller
	dev  *dram.Device

	// Controller-tick elision: ctrlNext is the bound NextEventAt returned
	// after the last unproductive tick. Until that cycle — and as long as no
	// core enqueues a request, which invalidates the bound (ctrlEnq) — the
	// tick is skipped even while cores stay busy: nothing can retire (the
	// bound caps at the oldest in-flight burst's end), nothing can issue,
	// and the policy's OnCycle is inert between events (the NextEventer
	// contract; non-NextEventer policies pin the bound to now+1). The
	// per-cycle BLP accounting those ticks would have done accrues in
	// ctrlIdle and is applied in closed form before the next real tick or
	// any stats read.
	ctrlNext int64
	ctrlIdle int64
	ctrlEnq  int64
	skipping bool
	// issued reports whether the shard's last step issued a command.
	issued bool

	// comps and cmds buffer the cycle's completions and command-log events
	// for post-barrier channel-order delivery (worker-pool runs only).
	comps []shardCompletion
	cmds  []memctrl.CommandEvent

	// col collects the shard's telemetry observations (nil when unprobed).
	col *telemetry.Collector
}

// shardCompletion is one retired request awaiting delivery to its core.
type shardCompletion struct {
	req *memctrl.Request
	end int64 // DRAM cycle of the data return
}

// step advances the shard's controller by one DRAM cycle, eliding the tick
// when the shard's next-event bound proves it inert. Safe to call from a
// worker goroutine: it touches only shard-owned state.
func (s *chanShard) step(dc int64) {
	if e := s.ctrl.Enqueues(); s.skipping && dc < s.ctrlNext && e == s.ctrlEnq {
		s.ctrlIdle++
		s.issued = false
		return
	}
	s.ctrlEnq = s.ctrl.Enqueues()
	s.flushIdle()
	before := s.ctrl.CommandsIssued()
	s.ctrl.Tick(dc)
	s.issued = s.ctrl.CommandsIssued() != before
	if s.issued {
		s.ctrlNext = dc + 1
	} else {
		s.ctrlNext = s.ctrl.NextEventAt(dc)
	}
}

// flushIdle applies the accumulated elided-cycle BLP accounting.
func (s *chanShard) flushIdle() {
	if s.ctrlIdle > 0 {
		s.ctrl.AccountIdleSpan(s.ctrlIdle)
		s.ctrlIdle = 0
	}
}

// The shard pool is the parallel executor of the run loop: W worker
// goroutines advance the channel shards through one DRAM cycle at a time
// with a barrier per cycle — the classic conservative-window parallel
// discrete-event scheme, with a one-cycle window (cores and controllers
// interact with one cycle of latency, so a cycle's shard steps are
// mutually independent by construction).
//
// Determinism does not depend on scheduling: shard j is owned by worker
// j mod W for the whole run, shards share no mutable state within a cycle,
// and everything that crosses shards (completions, command-log events,
// telemetry, traces) buffers shard-locally and is merged on the run
// goroutine in channel order after the barrier. The barrier's WaitGroup
// gives the run goroutine a happens-before edge over every shard's state,
// and the next start send hands it back.

// workerCount resolves the Parallelism knob against the shard count:
// 0 and 1 mean inline sequential execution, and more workers than shards
// is clamped (extra workers would only idle). The default is inline
// because no measured host has shown the pool winning: its per-cycle
// barrier costs more than a shard step saves (sim.parallel_speedup 0.49×
// in BENCH_3.json, 0.37–0.53× on a 2-CPU host in BENCH_8.json; DESIGN.md
// §14).
func workerCount(parallelism, shards int) int {
	return max(min(parallelism, shards), 1)
}

// shardPool runs chanShard.step across a fixed set of worker goroutines.
type shardPool struct {
	shards []*chanShard
	// start[w] carries the cycle number that releases worker w; cap 1 so
	// the run goroutine never blocks fanning out.
	start []chan int64
	// wg is the per-cycle barrier: armed to W before fan-out, released by
	// each worker after its shards step.
	wg sync.WaitGroup
	// quit, once closed, retires the workers; done joins them.
	quit    chan struct{}
	done    sync.WaitGroup
	stopped bool
}

func newShardPool(shards []*chanShard, workers int) *shardPool {
	p := &shardPool{
		shards: shards,
		start:  make([]chan int64, workers),
		quit:   make(chan struct{}),
	}
	for w := range p.start {
		p.start[w] = make(chan int64, 1)
		p.done.Add(1)
		go p.worker(w)
	}
	return p
}

// worker advances shards w, w+W, w+2W, … each cycle it is released for.
func (p *shardPool) worker(w int) {
	defer p.done.Done()
	stride := len(p.start)
	for {
		select {
		case <-p.quit:
			return
		case dc := <-p.start[w]:
			for j := w; j < len(p.shards); j += stride {
				p.shards[j].step(dc)
			}
			p.wg.Done()
		}
	}
}

// cycle steps every shard through DRAM cycle dc and returns after all have
// finished — the per-cycle barrier.
func (p *shardPool) cycle(dc int64) {
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- dc
	}
	p.wg.Wait()
}

// stop retires the workers and joins them; idempotent. The run loop
// defers it so no goroutine outlives the run (pinned by the leak test).
func (p *shardPool) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	close(p.quit)
	p.done.Wait()
}
