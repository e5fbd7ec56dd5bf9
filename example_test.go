package parbs_test

import (
	"context"
	"fmt"

	parbs "repro"
)

// speedySystem keeps the documented examples fast.
func speedySystem(cores int) parbs.System {
	s := parbs.DefaultSystem(cores)
	s.MeasureCycles = 200_000
	s.WarmupCycles = 20_000
	return s
}

// ExampleRun shows the minimal end-to-end flow: build a workload, pick a
// scheduler, run, and read the fairness metrics.
func ExampleRun() {
	w, err := parbs.WorkloadFromNames("lbm", "lbm", "lbm", "lbm")
	if err != nil {
		panic(err)
	}
	report, err := parbs.Run(speedySystem(4), w, parbs.NewPARBS(parbs.PARBSOptions{}))
	if err != nil {
		panic(err)
	}
	fmt.Println(report.Scheduler, len(report.Threads), "threads")
	// Output: PAR-BS 4 threads
}

// ExampleNewPARBS demonstrates configuring the paper's design alternatives.
func ExampleNewPARBS() {
	s := parbs.NewPARBS(parbs.PARBSOptions{
		MarkingCap: 3,
		Batching:   parbs.EmptySlotBatching,
		Ranking:    parbs.TotalMax,
	})
	fmt.Println(s.Name())
	// Output: BS(eslot,cap=3,total-max)
}

// ExamplePARBSOptions_Validate shows option pre-checking.
func ExamplePARBSOptions_Validate() {
	opts := parbs.PARBSOptions{Priorities: []int{1, 2}}
	fmt.Println(opts.Validate(4) != nil)
	// Output: true
}

// ExampleSchedulerByName lists and constructs the paper's schedulers.
func ExampleSchedulerByName() {
	for _, name := range parbs.SchedulerNames() {
		s, _ := parbs.SchedulerByName(name)
		fmt.Println(s.Name())
	}
	// Output:
	// FR-FCFS
	// FCFS
	// NFQ
	// STFM
	// PAR-BS
}

// ExampleSystem_channelMode runs the same workload on an Independent-
// channel system — one scheduler per channel.
func ExampleSystem_channelMode() {
	w, err := parbs.WorkloadFromNames("lbm", "lbm", "lbm", "lbm",
		"mcf", "mcf", "libquantum", "libquantum")
	if err != nil {
		panic(err)
	}
	sys := speedySystem(8)
	sys.Channels = 2
	sys.ChannelMode = parbs.Independent
	report, err := parbs.RunContext(context.Background(), sys, w,
		parbs.NewPARBS(parbs.PARBSOptions{}))
	if err != nil {
		panic(err)
	}
	fmt.Println(report.Scheduler, len(report.Threads), "threads")
	// Output: PAR-BS x2-independent 8 threads
}

// ExampleSystem_Validate shows the descriptive configuration errors.
func ExampleSystem_Validate() {
	sys := parbs.DefaultSystem(4)
	sys.Channels = -1
	fmt.Println(sys.Validate())
	sys.Channels = 8 // more channels than cores
	fmt.Println(sys.Validate() != nil)
	// Output:
	// parbs: Channels must be >= 0 (0 scales with cores), got -1
	// true
}
