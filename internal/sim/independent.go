package sim

import (
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// RunIndependent simulates the mix on a system whose channels are fully
// independent — one device, one controller and one fresh scheduling policy
// per channel, with cache lines spread across channels by dram.ChannelRoute
// — instead of the paper's lock-step (ganged) channels. This is the
// organization of most contemporary multi-channel controllers and the
// setting of the NFQ and STFM papers; comparing it against Run with the
// same total bandwidth isolates the effect of splitting the scheduler's
// view.
//
// cfg.Geometry.Channels gives the channel count; each channel is one shard
// of the run loop, its device built with Channels = 1 (a full-width burst).
// factory must return a fresh policy per call (policies are stateful).
func RunIndependent(cfg Config, mix workload.Mix, factory func() memctrl.Policy) (Result, error) {
	return run(cfg, mix, factory, false)
}

// RunAloneIndependent simulates one benchmark alone on the same independent-
// channel memory system — the slowdown baseline matching RunIndependent the
// way RunAlone matches Run.
func RunAloneIndependent(cfg Config, p workload.Profile) (metrics.ThreadOutcome, error) {
	return runAlone(cfg, p, false)
}

// channelPort adapts the shard controllers to the cpu.MemPort interface,
// routing core memory traffic by dram.ChannelRoute (every line to shard 0
// when there is one) and carrying the current DRAM cycle.
type channelPort struct {
	shards []*memctrl.Controller
	line   int64
	chans  int
	now    int64
}

func (p *channelPort) IssueRead(thread int, addr int64, tag int) bool {
	ch, inner := dram.ChannelRoute(addr, p.line, p.chans)
	r, ok := p.shards[ch].EnqueueRead(thread, inner, p.now)
	if ok {
		r.Tag = tag
	}
	return ok
}

func (p *channelPort) IssueWrite(thread int, addr int64) bool {
	ch, inner := dram.ChannelRoute(addr, p.line, p.chans)
	return p.shards[ch].EnqueueWrite(thread, inner, p.now)
}

// sampler holds the preallocated scratch a probed run fills at each epoch
// boundary: it merges per-thread controller stats across shards and
// concatenates per-shard bank CAS counters into the probe's flat bank axis.
type sampler struct {
	probe      *telemetry.Probe
	cores      []*cpu.Core
	shards     []*memctrl.Controller
	threads    []telemetry.ThreadSample
	bankCAS    []int64
	chanBanks  int
	nextSample int64
	epochLen   int64
}

// sample snapshots the cumulative simulation counters into the probe at the
// epoch ending at DRAM cycle end. Allocation-free.
func (s *sampler) sample(end int64) {
	for i, core := range s.cores {
		st := core.Stats()
		ms := s.shards[0].ThreadStats(i)
		queue := s.shards[0].ReadsPerThread(i)
		for _, sh := range s.shards[1:] {
			ms = ms.Merge(sh.ThreadStats(i))
			queue += sh.ReadsPerThread(i)
		}
		blpSum, blpCycles := ms.BLPAccum()
		s.threads[i] = telemetry.ThreadSample{
			Instructions:     st.Instructions,
			CPUCycles:        st.Cycles,
			MemStallCycles:   st.MemStallCycles,
			QueueLen:         queue,
			WindowOccupancy:  core.WindowOccupancy(),
			ReadsCompleted:   ms.ReadsCompleted,
			TotalReadLatency: ms.TotalReadLatency,
			BLPSum:           blpSum,
			BLPCycles:        blpCycles,
		}
	}
	var ds telemetry.DeviceSample
	for ch, sh := range s.shards {
		dev := sh.Device()
		dev.CopyBankCAS(s.bankCAS[ch*s.chanBanks : (ch+1)*s.chanBanks])
		dst := dev.Stats()
		ds.Reads += dst.Reads
		ds.Writes += dst.Writes
		ds.Activates += dst.Activates
		ds.BusyCycles += dst.BusyCycles / int64(len(s.shards)) // one-bus normalization, as in Result
	}
	s.probe.Sample(end, s.threads, s.bankCAS, ds)
	s.nextSample = end + s.epochLen
}
