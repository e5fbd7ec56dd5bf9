package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// AloneCache memoizes alone-run baselines. A baseline is a deterministic
// function of the benchmark, the channel layout and every Config field that
// survives runAlone's single-core normalization — not of the scheduler, the
// co-runners or the core count — so every run on one memory system shares
// its baselines. The zero value is an empty cache, safe for concurrent use.
// Each key is simulated by one lookup at a time: a lookup that finds its key
// being simulated waits for that run. A run that fails or panics is not
// cached.
type AloneCache struct {
	mu sync.Mutex
	m  map[aloneKey]aloneEntry
}

// aloneEntry is a cached baseline, or a claim on one being simulated when
// run is non-nil.
type aloneEntry struct {
	out metrics.ThreadOutcome
	run *aloneRun
}

// aloneRun is one in-flight simulation of a key. err is set before done is
// closed; a failed run's key is removed from the cache first.
type aloneRun struct {
	done chan struct{}
	err  error
}

// aloneKey is the whole normalized system an alone run simulates. Cores and
// the controller's thread count, channel stamp and request-ID striding are
// overwritten by runAlone and run, so they are zeroed; observers, Context
// and Progress never change the outcome, and neither does ForceTicked (the
// skipping and ticked loops are byte-identical).
type aloneKey struct {
	benchmark string
	ganged    bool
	timing    dram.Timing
	geometry  dram.Geometry
	ctrl      memctrl.Config
	core      cpu.Config
	ratio     int64
	warmup    int64
	measure   int64
	overhead  int64
	seed      int64
}

func newAloneKey(cfg Config, p workload.Profile, ganged bool) aloneKey {
	ctrl := cfg.Ctrl
	ctrl.Threads, ctrl.Channel, ctrl.IDBase, ctrl.IDStride = 0, 0, 0, 0
	return aloneKey{
		benchmark: p.Name,
		ganged:    ganged,
		timing:    cfg.Timing,
		geometry:  cfg.Geometry,
		ctrl:      ctrl,
		core:      cfg.Core,
		ratio:     cfg.CPUCyclesPerDRAM,
		warmup:    cfg.WarmupCPUCycles,
		measure:   cfg.MeasureCPUCycles,
		overhead:  cfg.CompletionOverheadCPU,
		seed:      cfg.Seed,
	}
}

// Len reports the number of cached baselines; runs in flight are not counted.
func (c *AloneCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.m {
		if e.run == nil {
			n++
		}
	}
	return n
}

// Alone returns p's baseline on cfg's memory system — RunAlone's when ganged,
// RunAloneIndependent's otherwise — simulating it on a miss. A key another
// lookup is simulating is waited for, not simulated again; if that run
// fails and cfg.Context is still live, this lookup simulates the key itself.
// cfg's Context and Progress apply to this lookup's own simulation only.
func (c *AloneCache) Alone(cfg Config, p workload.Profile, ganged bool) (metrics.ThreadOutcome, error) {
	key := newAloneKey(cfg, p, ganged)
	for {
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			r := c.claimLocked(key)
			c.mu.Unlock()
			out, pv, err := c.simulate(cfg, p, ganged, key, r)
			if pv != nil {
				panic(pv)
			}
			return out, err
		}
		c.mu.Unlock()
		if e.run == nil {
			return e.out, nil
		}
		if err := e.run.wait(cfg.Context); err != nil {
			return metrics.ThreadOutcome{}, fmt.Errorf("sim: waiting for the alone run of %s: %w", p.Name, err)
		}
	}
}

// claimLocked marks key in flight. c.mu must be held and key absent.
func (c *AloneCache) claimLocked(key aloneKey) *aloneRun {
	if c.m == nil {
		c.m = make(map[aloneKey]aloneEntry)
	}
	r := &aloneRun{done: make(chan struct{})}
	c.m[key] = aloneEntry{run: r}
	return r
}

// simulate runs p's alone run under the claim r on key and settles r. A
// run that panics settles r with an error, so that its waiters do not hang,
// and returns the panic value for the caller to re-raise on its own
// goroutine.
func (c *AloneCache) simulate(cfg Config, p workload.Profile, ganged bool, key aloneKey, r *aloneRun) (out metrics.ThreadOutcome, pv any, err error) {
	finished := false
	defer func() {
		if !finished {
			pv = recover()
			err = fmt.Errorf("sim: alone run of %s did not finish: %v", p.Name, pv)
		}
		c.finish(key, r, out, err)
	}()
	out, err = runAlone(cfg, p, ganged)
	finished = true
	return out, nil, err
}

// finish settles the claim r on key: it caches out, or drops the key when
// err is set, then releases r's waiters.
func (c *AloneCache) finish(key aloneKey, r *aloneRun, out metrics.ThreadOutcome, err error) {
	c.mu.Lock()
	if err != nil {
		delete(c.m, key)
	} else {
		c.m[key] = aloneEntry{out: out}
	}
	c.mu.Unlock()
	r.err = err
	close(r.done)
}

// wait blocks until r settles or ctx (nil: never) is done. It returns ctx's
// error when ctx ends first, or when r failed and ctx has ended since.
func (r *aloneRun) wait(ctx context.Context) error {
	if ctx == nil {
		<-r.done
		return nil
	}
	select {
	case <-r.done:
		if r.err != nil {
			return ctx.Err()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// AloneBatch is the set of alone runs one Start call began: the missing
// baselines of a list of profiles, simulated on helper goroutines while the
// caller does other work (a shared run). Relay, Wait and Stop belong to the
// goroutine that called Start and must not be called concurrently.
type AloneBatch struct {
	c        *AloneCache
	cfg      Config
	ps       []workload.Profile
	ganged   bool
	progress func(benchmark string, p Progress)
	// slot[i] is the index in jobs of ps[i]'s claim, or -1 when its key was
	// cached or claimed by another lookup when Start ran.
	slot []int
	jobs []aloneJob
	// parent is cfg.Context as Start got it. ctx, derived from it, is the
	// context every job runs under; cancel stops them.
	parent context.Context
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// notify has a token whenever a helper queued a heartbeat or exited
	// since the caller last looked.
	notify chan struct{}
	ended  bool

	mu    sync.Mutex
	next  int // jobs[next:] are not yet taken
	live  int // helpers not yet exited
	queue []aloneBeat
}

// aloneJob is one key a batch claimed. out and panic are written by
// whichever goroutine runs the job, before the batch learns it finished.
type aloneJob struct {
	p     workload.Profile
	key   aloneKey
	run   *aloneRun
	out   metrics.ThreadOutcome
	panic any
}

// aloneBeat is a helper's heartbeat waiting for Relay.
type aloneBeat struct {
	benchmark string
	p         Progress
}

// Start claims every distinct key of ps that c neither holds nor is already
// simulating, and starts simulating the claims on at most
// max(1, GOMAXPROCS-1) helper goroutines, so that with the caller's own
// run at most GOMAXPROCS simulations run at once (two when GOMAXPROCS is
// 1). cfg.Progress is ignored;
// progress, when non-nil, receives every heartbeat of the batch's runs, on
// the calling goroutine only, from Relay and Wait. cfg.Context cancels the
// runs. Wait or Stop must follow, or helpers may outlive the caller.
func (c *AloneCache) Start(cfg Config, ps []workload.Profile, ganged bool, progress func(benchmark string, p Progress)) *AloneBatch {
	b := &AloneBatch{c: c, cfg: cfg, ps: ps, ganged: ganged, progress: progress,
		parent: cfg.Context, slot: make([]int, len(ps))}
	b.cfg.Progress = nil
	c.mu.Lock()
	for i, p := range ps {
		key := newAloneKey(cfg, p, ganged)
		b.slot[i] = -1
		e, ok := c.m[key]
		if !ok {
			b.slot[i] = len(b.jobs)
			b.jobs = append(b.jobs, aloneJob{p: p, key: key, run: c.claimLocked(key)})
			continue
		}
		for j := range b.jobs {
			if b.jobs[j].run == e.run {
				b.slot[i] = j
				break
			}
		}
	}
	c.mu.Unlock()
	if len(b.jobs) == 0 {
		return b
	}
	parent := cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	b.ctx, b.cancel = context.WithCancel(parent)
	b.cfg.Context = b.ctx
	b.notify = make(chan struct{}, 1)
	b.live = min(len(b.jobs), max(1, runtime.GOMAXPROCS(0)-1))
	b.wg.Add(b.live)
	for range b.live {
		go b.helper()
	}
	return b
}

// helper runs untaken jobs until none is left or the batch stops.
func (b *AloneBatch) helper() {
	defer b.wg.Done()
	for j := b.take(); j != nil; j = b.take() {
		var beat func(Progress)
		if b.progress != nil {
			name := j.p.Name
			beat = func(p Progress) {
				b.mu.Lock()
				b.queue = append(b.queue, aloneBeat{name, p})
				b.mu.Unlock()
				b.signal()
			}
		}
		b.runJob(j, beat)
	}
	b.mu.Lock()
	b.live--
	b.mu.Unlock()
	b.signal()
}

func (b *AloneBatch) signal() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// take hands out the next untaken job, or nil once all are taken (close
// takes the rest) or the batch's context is done.
func (b *AloneBatch) take() *aloneJob {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.next >= len(b.jobs) || b.ctx.Err() != nil {
		return nil
	}
	j := &b.jobs[b.next]
	b.next++
	return j
}

// runJob simulates j with heartbeats going to beat, and settles its claim.
func (b *AloneBatch) runJob(j *aloneJob, beat func(Progress)) {
	cfg := b.cfg
	cfg.Progress = beat
	j.out, j.panic, _ = b.c.simulate(cfg, j.p, b.ganged, j.key, j.run)
}

// close stops handing out jobs and settles every untaken claim with err.
func (b *AloneBatch) close(err error) {
	b.mu.Lock()
	untaken := b.jobs[b.next:]
	b.next = len(b.jobs)
	b.mu.Unlock()
	for i := range untaken {
		j := &untaken[i]
		b.c.finish(j.key, j.run, metrics.ThreadOutcome{},
			fmt.Errorf("sim: alone run of %s not started: %w", j.p.Name, err))
	}
}

// Relay delivers the heartbeats helpers have queued since the last call, in
// the order they were queued. Call it from the caller's own checkpoints.
func (b *AloneBatch) Relay() {
	if b.notify == nil || b.progress == nil {
		return
	}
	b.mu.Lock()
	q := b.queue
	b.queue = nil
	b.mu.Unlock()
	for _, hb := range q {
		b.progress(hb.benchmark, hb.p)
	}
}

// Wait finishes the batch on the calling goroutine: it runs the jobs no
// helper has taken, waits for the helpers while relaying their heartbeats,
// and returns the baselines of ps in order. Keys another lookup held when
// Start ran are looked up again (waiting for them if still in flight). The
// error is the first failure in ps order; a cancelled context fails the
// jobs not yet started with an error wrapping its cause. A job that
// panicked, on a helper or here, panics again here once every helper has
// exited.
func (b *AloneBatch) Wait() ([]metrics.ThreadOutcome, error) {
	if b.notify != nil && !b.ended {
		for j := b.take(); j != nil; j = b.take() {
			var beat func(Progress)
			if b.progress != nil {
				name := j.p.Name
				beat = func(p Progress) {
					b.Relay()
					b.progress(name, p)
				}
			}
			b.runJob(j, beat)
		}
		b.close(b.ctx.Err())
		for {
			b.mu.Lock()
			live := b.live
			b.mu.Unlock()
			b.Relay()
			if live == 0 {
				break
			}
			<-b.notify
		}
		b.end()
		for i := range b.jobs {
			if pv := b.jobs[i].panic; pv != nil {
				panic(pv)
			}
		}
	}
	outs := make([]metrics.ThreadOutcome, len(b.ps))
	for i, p := range b.ps {
		if j := b.slot[i]; j >= 0 {
			if err := b.jobs[j].run.err; err != nil {
				return nil, err
			}
			outs[i] = b.jobs[j].out
			continue
		}
		cfg := b.cfg
		cfg.Context = b.parent
		if b.progress != nil {
			name := p.Name
			cfg.Progress = func(hb Progress) { b.progress(name, hb) }
		}
		out, err := b.c.Alone(cfg, p, b.ganged)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// Stop abandons the batch: it cancels the helpers' runs, fails the jobs
// not yet started, and returns once every helper has exited. Heartbeats
// still queued are dropped. Stop after Wait does nothing.
func (b *AloneBatch) Stop() {
	if b.notify == nil || b.ended {
		return
	}
	b.cancel()
	b.close(context.Canceled)
	b.end()
}

// end waits for the helpers to exit and releases the batch's context.
func (b *AloneBatch) end() {
	b.wg.Wait()
	b.cancel()
	b.ended = true
}
