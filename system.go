package parbs

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ChannelMode selects how a multi-channel memory system is organized.
// Use ParseChannelMode for flag strings.
type ChannelMode string

// Channel organizations.
const (
	// Lockstep gangs all channels into one wide command stream under a
	// single scheduler — the paper's organization (Section 6), and the
	// default (the zero value "" selects it).
	Lockstep ChannelMode = "lockstep"
	// Independent gives every channel its own controller and its own fresh
	// scheduler instance, with cache lines spread across channels — the
	// organization of most contemporary multi-channel controllers.
	Independent ChannelMode = "independent"
)

// ChannelModeNames lists the valid channel modes.
func ChannelModeNames() []string { return []string{string(Lockstep), string(Independent)} }

// ParseChannelMode maps a flag string to a ChannelMode. The empty string
// selects Lockstep.
func ParseChannelMode(s string) (ChannelMode, error) {
	switch ChannelMode(s) {
	case "", Lockstep:
		return Lockstep, nil
	case Independent:
		return Independent, nil
	default:
		return "", fmt.Errorf("parbs: unknown channel mode %q (want one of %v)", s, ChannelModeNames())
	}
}

// System describes the simulated CMP and memory system. Construct with
// DefaultSystem and adjust fields as needed.
type System struct {
	// Cores is the number of cores (one thread per core).
	Cores int
	// Channels is the number of DRAM channels; 0 scales with cores as in
	// the paper (1, 2, 4 for 4, 8, 16 cores). Positive values may not
	// exceed Cores — the paper scales channels strictly slower than cores,
	// and more channels than cores cannot be kept busy.
	Channels int
	// ChannelMode organizes the channels: Lockstep (default) gangs them
	// under one scheduler as in the paper; Independent runs one scheduler
	// per channel (see ChannelMode).
	ChannelMode ChannelMode
	// Banks is the number of DRAM banks per channel (default 8).
	Banks int
	// MeasureCycles is the measured CPU-cycle budget (default 2M).
	MeasureCycles int64
	// WarmupCycles is simulated and discarded first (default 200k).
	WarmupCycles int64
	// Seed drives trace generation.
	Seed int64
	// Device selects the DRAM generation: DDR2_800 (default, the paper's
	// baseline) or DDR3_1333. Use ParseDevice for flag strings.
	Device Device
}

// Shape bounds of a simulated system, shared with the trace-analysis
// parsers: Validate refuses more than MaxCores cores or more than MaxBanks
// banks in all (channels × banks per channel) before anything is
// allocated.
const (
	MaxCores = trace.MaxCores
	MaxBanks = trace.MaxBanks
)

// DefaultSystem returns the paper's baseline system for the core count.
func DefaultSystem(cores int) System {
	return System{Cores: cores, Seed: 1}
}

// Validate reports whether the system description is usable, with a
// descriptive error naming the offending field. Zero values mean "use the
// default" and are always valid; negative values are rejected rather than
// silently ignored. RunContext (via toSim) and the CLIs call it before
// simulating.
func (s System) Validate() error {
	switch {
	case s.Cores <= 0:
		return fmt.Errorf("parbs: system needs a positive core count, got %d", s.Cores)
	case s.Channels < 0:
		return fmt.Errorf("parbs: Channels must be >= 0 (0 scales with cores), got %d", s.Channels)
	case s.Channels > s.Cores:
		return fmt.Errorf("parbs: %d channels exceed %d cores; the paper scales channels 1/2/4 for 4/8/16 cores", s.Channels, s.Cores)
	case s.Banks < 0:
		return fmt.Errorf("parbs: Banks must be >= 0 (0 selects the default), got %d", s.Banks)
	case s.MeasureCycles < 0:
		return fmt.Errorf("parbs: MeasureCycles must be >= 0 (0 selects the default), got %d", s.MeasureCycles)
	case s.WarmupCycles < 0:
		return fmt.Errorf("parbs: WarmupCycles must be >= 0 (0 selects the default), got %d", s.WarmupCycles)
	}
	if s.Cores > MaxCores {
		return fmt.Errorf("parbs: %d cores exceed the supported %d", s.Cores, MaxCores)
	}
	// The bank count as simulated, defaults applied. Channels <= Cores, so
	// the product cannot overflow once Banks is bounded.
	g := sim.DefaultConfig(s.Cores).Geometry
	if s.Channels > 0 {
		g.Channels = s.Channels
	}
	if s.Banks > 0 {
		g.Banks = s.Banks
	}
	if g.Banks > MaxBanks || g.Channels*g.Banks > MaxBanks {
		return fmt.Errorf("parbs: %d channels × %d Banks exceed the supported %d banks", g.Channels, g.Banks, MaxBanks)
	}
	if _, err := ParseChannelMode(string(s.ChannelMode)); err != nil {
		return err
	}
	switch s.Device {
	case "", DDR2_800, DDR3_1333:
	default:
		return fmt.Errorf("parbs: unknown device %q (want one of %v)", s.Device, DeviceNames())
	}
	return nil
}

// toSim lowers the public System onto the internal configuration.
func (s System) toSim() (sim.Config, error) {
	if err := s.Validate(); err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(s.Cores)
	if s.Channels > 0 {
		cfg.Geometry.Channels = s.Channels
	}
	if s.Banks > 0 {
		cfg.Geometry.Banks = s.Banks
	}
	if s.MeasureCycles > 0 {
		cfg.MeasureCPUCycles = s.MeasureCycles
	}
	if s.WarmupCycles > 0 {
		cfg.WarmupCPUCycles = s.WarmupCycles
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	switch s.Device {
	case "", DDR2_800:
		// baseline
	case DDR3_1333:
		cfg.Timing = dram.DDR3_1333()
		cfg.CPUCyclesPerDRAM = 6 // 4 GHz over a 667 MHz command clock
	}
	return cfg, nil
}

// Workload is a multiprogrammed workload: one benchmark per core.
type Workload struct {
	mix workload.Mix
}

// Name returns the workload's label.
func (w Workload) Name() string { return w.mix.Name }

// Benchmarks returns the benchmark names in core order.
func (w Workload) Benchmarks() []string { return workload.Names(w.mix.Benchmarks) }

// WorkloadFromNames builds a workload from Table 3 benchmark names
// (see BenchmarkNames).
func WorkloadFromNames(names ...string) (Workload, error) {
	m, err := workload.MixOf("custom", names...)
	return Workload{mix: m}, err
}

// CaseStudyI returns the paper's memory-intensive 4-core case study.
func CaseStudyI() Workload { return Workload{mix: workload.CaseStudyI()} }

// CaseStudyII returns the non-intensive 4-core case study.
func CaseStudyII() Workload { return Workload{mix: workload.CaseStudyII()} }

// CaseStudyIII returns four copies of lbm.
func CaseStudyIII() Workload { return Workload{mix: workload.CaseStudyIII()} }

// RandomWorkloads returns n category-balanced random workloads for the
// given core count, constructed as in the paper's Section 7.
func RandomWorkloads(n, cores int, seed int64) []Workload {
	ms := workload.RandomMixes(n, cores, seed)
	out := make([]Workload, len(ms))
	for i, m := range ms {
		out[i] = Workload{mix: m}
	}
	return out
}

// BenchmarkNames lists the 28 Table 3 benchmark names.
func BenchmarkNames() []string { return workload.Names(workload.Benchmarks()) }

// ThreadReport is one thread's outcome in a run.
type ThreadReport struct {
	// Benchmark is the profile name.
	Benchmark string
	// MemSlowdown is MCPI_shared / MCPI_alone (1.0 = unaffected).
	MemSlowdown float64
	// IPC is the thread's instructions per cycle in the shared run.
	IPC float64
	// BLP is the measured bank-level parallelism.
	BLP float64
	// RowHitRate is the fraction of reads serviced from an open row.
	RowHitRate float64
	// ASTPerReq is the average stall time per DRAM request, CPU cycles.
	ASTPerReq float64
}

// Report is the outcome of one shared run joined with alone baselines.
type Report struct {
	// Scheduler is the policy's name.
	Scheduler string
	// Threads holds per-thread outcomes in core order.
	Threads []ThreadReport
	// Unfairness is max/min memory slowdown (1.0 = perfectly fair).
	Unfairness float64
	// WeightedSpeedup is the paper's system throughput metric.
	WeightedSpeedup float64
	// HmeanSpeedup balances fairness and throughput.
	HmeanSpeedup float64
	// WorstCaseLatency is the largest read latency observed, CPU cycles.
	WorstCaseLatency int64
	// BusUtilization is the DRAM data bus utilization in [0,1].
	BusUtilization float64
}

// String renders the report as an aligned table.
func (r Report) String() string {
	s := fmt.Sprintf("scheduler %s: unfairness %.2f, weighted speedup %.3f, hmean speedup %.3f\n",
		r.Scheduler, r.Unfairness, r.WeightedSpeedup, r.HmeanSpeedup)
	for _, t := range r.Threads {
		s += fmt.Sprintf("  %-12s slowdown %5.2f  IPC %6.3f  BLP %5.2f  rbhit %5.3f  AST/req %7.1f\n",
			t.Benchmark, t.MemSlowdown, t.IPC, t.BLP, t.RowHitRate, t.ASTPerReq)
	}
	return s
}
