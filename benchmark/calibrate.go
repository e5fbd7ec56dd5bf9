package main

import (
	"runtime/metrics"
	"time"
)

// The host this benchmark was built on is a shared VM whose speed drifts by
// up to a third over minutes, with other tenants' load. Host time of one
// run would compare runs made at different hours mostly by that drift, so
// each timed run also times a fixed calibration kernel around its set-ups
// and before every op, and reports its host times scaled to a reference
// host: one on which the kernel takes calRefMS. The kernel does not depend on the code
// under test, so the scaling cancels host speed and leaves code changes.
// The raw figures and the scale factor are printed before the result line.

// calRefMS is the reference host's calibration time: about what the kernel
// takes on the 2-CPU Xeon VM the bounds were set on.
const calRefMS = 5.0

// calWords sizes the kernel's table to 256 KiB, which tracked the
// simulator's own slowdowns better than tables of 4 and 16 MiB.
const calWords = 1 << 16

var calTable [calWords]uint32

// calibrate runs the kernel once and returns its wall time in ms: a
// xorshift stream driving data-dependent branches and read-modify-writes
// into calTable.
func calibrate() float64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calWords - 1)
		if calTable[j]&1 == 0 {
			calTable[j] += uint32(x >> 32)
		} else {
			calTable[(j*7)&(calWords-1)] ^= uint32(x)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// calibration collects kernel times over a run.
type calibration struct{ samples []float64 }

// calTries is how many times sample times the kernel to get one sample
// during which no GC cycle completed.
const calTries = 3

// sample times the kernel and returns how long that took in all. A time
// during which a GC cycle completed is left out and the kernel timed
// again: the program's own GC work would slow the kernel and so be divided
// out of the figures meant to show it.
func (c *calibration) sample() time.Duration {
	var spent float64
	for try := 0; try < calTries; try++ {
		n := gcCycles()
		ms := calibrate()
		spent += ms
		if gcCycles() == n {
			c.samples = append(c.samples, ms)
			break
		}
	}
	return time.Duration(spent * 1e6)
}

// sampleN takes n samples.
func (c *calibration) sampleN(n int) {
	for k := 0; k < n; k++ {
		c.sample()
	}
}

// hostScale is how much slower than the reference host a phase ran: the
// kernel's slowdown over the phase, divided by the share of CPU time the
// hypervisor left the VM (stealPct is the host's steal time over the phase,
// in percent). Steal comes in slices longer than one kernel time, so the
// kernel's median misses it, while every op of hundreds of ms absorbs its
// share.
func hostScale(c calibration, stealPct float64) float64 {
	return c.slowdown() / (1 - stealPct/100)
}

// gcCycles is the number of GC cycles the runtime has completed.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// slowdown is the run's host speed relative to the reference host: above 1
// on a slower host.
func (c *calibration) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / calRefMS
}
