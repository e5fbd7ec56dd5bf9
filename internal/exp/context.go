package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Context carries shared experiment state: the simulation scale, the seed,
// and a cache of alone-run baselines shared by every experiment run on it.
type Context struct {
	// Quick reduces workload counts and simulated cycles for smoke runs
	// and benchmarks; the full experiments use Quick == false.
	Quick bool
	// Seed drives workload construction and trace generation.
	Seed int64
	// Ctx, when non-nil, cancels in-flight experiments: parallel workers
	// stop scheduling new simulations and running simulations abort at
	// their next epoch checkpoint. Nil means no cancellation (and keeps
	// the simulator's zero-overhead no-checkpoint fast path).
	Ctx context.Context

	// alone is keyed by the whole memory system, so experiments that sweep
	// a system parameter share the baselines of configurations they have
	// in common.
	alone sim.AloneCache
}

// NewContext returns a Context with the given fidelity.
func NewContext(quick bool) *Context {
	return &Context{Quick: quick, Seed: 1}
}

// Config returns the simulation configuration for a system with the given
// core count at the context's fidelity.
func (x *Context) Config(cores int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	cfg.Seed = x.Seed
	cfg.Context = x.Ctx
	if x.Quick {
		cfg.WarmupCPUCycles = 50_000
		cfg.MeasureCPUCycles = 500_000
	}
	return cfg
}

// ctx returns the context experiments run under, defaulting to Background.
func (x *Context) ctx() context.Context {
	if x.Ctx != nil {
		return x.Ctx
	}
	return context.Background()
}

// MixCount scales a workload-count to the context's fidelity.
func (x *Context) MixCount(full int) int {
	if !x.Quick {
		return full
	}
	n := full / 8
	if n < 3 {
		n = 3
	}
	return n
}

// Alone returns the cached lock-step alone-run baseline for the benchmark
// on cfg's memory system.
func (x *Context) Alone(cfg sim.Config, p workload.Profile) (metrics.ThreadOutcome, error) {
	return x.alone.Alone(cfg, p, true)
}

// MixResult is one shared run reduced to the paper's metrics.
type MixResult struct {
	Mix       workload.Mix
	Policy    string
	Cs        []metrics.Comparison
	Raw       sim.Result
	Unfair    float64
	WSpeedup  float64
	HSpeedup  float64
	AvgAST    float64
	WCLatency int64
}

// RunMix simulates the mix under the policy and joins it with the cached
// alone baselines.
func (x *Context) RunMix(cfg sim.Config, mix workload.Mix, policy memctrl.Policy) (MixResult, error) {
	res, err := sim.Run(cfg, mix, policy)
	if err != nil {
		return MixResult{}, fmt.Errorf("mix %s: %w", mix.Name, err)
	}
	return x.compare(cfg, mix, res)
}

// compare joins a shared run of the mix on cfg with the lock-step alone
// baselines and reduces it to the paper's metrics.
func (x *Context) compare(cfg sim.Config, mix workload.Mix, res sim.Result) (MixResult, error) {
	cs := make([]metrics.Comparison, len(res.Threads))
	for i, th := range res.Threads {
		alone, err := x.Alone(cfg, mix.Benchmarks[i])
		if err != nil {
			return MixResult{}, err
		}
		cs[i] = metrics.Comparison{Alone: alone, Shared: th}
	}
	return MixResult{
		Mix:       mix,
		Policy:    res.Policy,
		Cs:        cs,
		Raw:       res,
		Unfair:    metrics.Unfairness(cs),
		WSpeedup:  metrics.WeightedSpeedup(cs),
		HSpeedup:  metrics.HmeanSpeedup(cs),
		AvgAST:    metrics.AvgASTPerReq(cs),
		WCLatency: metrics.WorstCaseLatency(cs, cfg.CPUCyclesPerDRAM),
	}, nil
}

// parallelFor runs fn(i) for i in [0,n) on up to GOMAXPROCS workers and
// returns the first error. Workers pull the next index under a lock and
// check ctx before each pull, so cancellation stops scheduling new indexes
// (in-flight fn calls finish; simulations observe the same ctx through
// sim.Config.Context and abort at their next checkpoint). internal/serve's
// worker pool reuses this pull-under-lock shape for its job queue.
func parallelFor(ctx context.Context, n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		err  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if err != nil || next >= n || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if e := fn(i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// prepareAlone pre-computes alone baselines for every benchmark in the
// mixes, in parallel, so subsequent RunMix calls hit the cache. Cancellation
// stops scheduling new baseline runs.
func (x *Context) prepareAlone(cfg sim.Config, mixes []workload.Mix) error {
	seen := map[string]workload.Profile{}
	for _, m := range mixes {
		for _, p := range m.Benchmarks {
			seen[p.Name] = p
		}
	}
	ps := make([]workload.Profile, 0, len(seen))
	for _, p := range seen {
		ps = append(ps, p)
	}
	return parallelFor(x.ctx(), len(ps), func(i int) error {
		_, err := x.Alone(cfg, ps[i])
		return err
	})
}

// variant names one scheduler configuration in a grid.
type variant struct {
	label string
	make  func() memctrl.Policy
}

// schedVariants labels each named scheduler (sched.ByName) by its name. An
// unknown name makes a nil policy, which sim.Run reports as an error.
func schedVariants(names ...string) []variant {
	vs := make([]variant, len(names))
	for i, name := range names {
		vs[i] = variant{label: name, make: func() memctrl.Policy {
			p, _ := sched.ByName(name)
			return p
		}}
	}
	return vs
}

// runGrid runs every variant on every mix on cfg, in parallel, and returns
// the results indexed [mix][variant].
func runGrid(x *Context, cfg sim.Config, mixes []workload.Mix, variants []variant) ([][]MixResult, error) {
	if err := x.prepareAlone(cfg, mixes); err != nil {
		return nil, err
	}
	nv := len(variants)
	results := make([][]MixResult, len(mixes))
	for mi := range results {
		results[mi] = make([]MixResult, nv)
	}
	err := parallelFor(x.ctx(), len(mixes)*nv, func(i int) error {
		mi, vi := i/nv, i%nv
		r, err := x.RunMix(cfg, mixes[mi], variants[vi].make())
		if err != nil {
			return err
		}
		results[mi][vi] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
