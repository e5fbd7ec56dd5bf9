package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// tickRatio is the CPU:DRAM clock ratio the simulator ticks cores at, and
// tickLatency the fixed read latency of the stub memory in CPU cycles.
const tickRatio, tickLatency = 10, 200

// fixedPort is a fixed-latency memory: it accepts every request, and the
// harness completes each read tickLatency CPU cycles after the DRAM cycle
// that issued it.
type fixedPort struct{ tags []int }

func (p *fixedPort) IssueRead(_ int, _ int64, tag int) bool {
	p.tags = append(p.tags, tag)
	return true
}
func (p *fixedPort) IssueWrite(int, int64) bool { return true }

// tickHarness steps one core the way the simulator does, one DRAM cycle
// (tickRatio CPU cycles) per step, on a looping recording of a benchmark's
// generated trace.
type tickHarness struct {
	core *cpu.Core
	port *fixedPort
	req  memctrl.Request
	cyc  int64
}

func newTickHarness(tb testing.TB, bench string) *tickHarness {
	tb.Helper()
	items := workload.RecordTrace(workload.MustByName(bench), 0, dram.DefaultGeometry(), 1, 20_000)
	h := &tickHarness{port: &fixedPort{}}
	core, err := cpu.NewCore(0, cpu.DefaultConfig(), &workload.SliceTrace{Items: items, Loop: true}, h.port)
	if err != nil {
		tb.Fatal(err)
	}
	h.core = core
	return h
}

func (h *tickHarness) step() {
	h.core.Tick(h.cyc, tickRatio)
	for _, tag := range h.port.tags {
		h.req.Tag = tag
		h.core.Complete(&h.req, h.cyc+tickLatency)
	}
	h.port.tags = h.port.tags[:0]
	h.cyc += tickRatio
}

// coreTickTraces are a compute-bound trace (povray, MPKI 0.03: long
// non-memory runs, the streaming fast path) and a memory-bound one (mcf,
// MPKI 99: overlapped misses and stalls).
var coreTickTraces = []struct{ name, bench string }{
	{"compute", "povray"},
	{"memory", "mcf"},
}

// BenchmarkCoreTick times one Tick call of one DRAM cycle's worth of CPU
// cycles, completions included.
func BenchmarkCoreTick(b *testing.B) {
	for _, tc := range coreTickTraces {
		b.Run(tc.name, func(b *testing.B) {
			h := newTickHarness(b, tc.bench)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.step()
			}
		})
	}
}

// TestCoreTickAllocs pins steady-state Tick, with completions delivered, at
// zero allocations on both traces.
func TestCoreTickAllocs(t *testing.T) {
	for _, tc := range coreTickTraces {
		h := newTickHarness(t, tc.bench)
		for i := 0; i < 5_000; i++ {
			h.step()
		}
		if got := testing.AllocsPerRun(2_000, h.step); got != 0 {
			t.Errorf("%s: %v allocations per Tick, want 0", tc.name, got)
		}
		if h.core.Stats().Instructions == 0 {
			t.Fatalf("%s: no instructions retired; the harness is vacuous", tc.name)
		}
	}
}
