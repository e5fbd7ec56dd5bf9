package parbs

import (
	"context"
	"strings"
	"testing"
)

// TestSystemValidateRejectsNegatives: negative shape fields must produce
// descriptive errors naming the field instead of being silently ignored
// (the historical toSim behavior).
func TestSystemValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*System)
		want   string
	}{
		{"channels", func(s *System) { s.Channels = -2 }, "Channels"},
		{"banks", func(s *System) { s.Banks = -1 }, "Banks"},
		{"measure", func(s *System) { s.MeasureCycles = -5 }, "MeasureCycles"},
		{"warmup", func(s *System) { s.WarmupCycles = -5 }, "WarmupCycles"},
		{"cores", func(s *System) { s.Cores = 0 }, "core count"},
		{"channels-vs-cores", func(s *System) { s.Channels = 8 }, "exceed"},
		{"channel-mode", func(s *System) { s.ChannelMode = "ganged" }, "channel mode"},
		{"device", func(s *System) { s.Device = "DDR9" }, "device"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := DefaultSystem(4)
			tc.mutate(&sys)
			err := sys.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", sys)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// toSim (and so Run) must reject the same way.
			if _, simErr := sys.toSim(); simErr == nil {
				t.Error("toSim accepted a system Validate rejects")
			}
		})
	}
	if err := DefaultSystem(4).Validate(); err != nil {
		t.Errorf("default system rejected: %v", err)
	}
}

// TestSystemValidateShapeBounds: Validate refuses a shape beyond MaxCores
// or MaxBanks (defaults applied) before anything is allocated. The
// billion-bank system would ask for a 60 GB block if it ran, so it is only
// ever validated here, never run.
func TestSystemValidateShapeBounds(t *testing.T) {
	bad := map[string]System{
		"billion banks":   {Cores: 4, Banks: 1 << 30},
		"too many cores":  {Cores: MaxCores + 1},
		"banks over max":  {Cores: 4, Banks: MaxBanks + 1},
		"channels×banks":  {Cores: 16, Channels: 16, Banks: MaxBanks/16 + 1},
		"default channel": {Cores: MaxCores, Banks: MaxBanks/(MaxCores/4) + 1}, // 256 channels by default
	}
	for name, sys := range bad {
		if err := sys.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, sys)
		}
	}
	good := map[string]System{
		"paper 16 cores": {Cores: 16, Channels: 4},
		"widest cores":   {Cores: MaxCores},
		"widest banks":   {Cores: 4, Channels: 1, Banks: MaxBanks},
		"exact product":  {Cores: 16, Channels: 16, Banks: MaxBanks / 16},
	}
	for name, sys := range good {
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: Validate rejected %+v: %v", name, sys, err)
		}
	}
}

// TestParseChannelMode covers the flag-string mapping.
func TestParseChannelMode(t *testing.T) {
	for s, want := range map[string]ChannelMode{"": Lockstep, "lockstep": Lockstep, "independent": Independent} {
		got, err := ParseChannelMode(s)
		if err != nil || got != want {
			t.Errorf("ParseChannelMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseChannelMode("ganged"); err == nil {
		t.Error("unknown mode accepted")
	}
	if len(ChannelModeNames()) != 2 {
		t.Errorf("ChannelModeNames() = %v", ChannelModeNames())
	}
}

// TestIndependentChannelModeEndToEnd: the Independent organization flows
// through the public API — per-channel schedulers, sharded alone
// baselines, per-channel progress.
func TestIndependentChannelModeEndToEnd(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "libquantum", "leslie3d")
	if err != nil {
		t.Fatal(err)
	}
	sys := quickSystem(4)
	sys.Channels = 2
	sys.ChannelMode = Independent

	var sawPerChannel bool
	rep, err := RunContext(context.Background(), sys, w, NewPARBS(PARBSOptions{}),
		WithProgress(func(p Progress) {
			if p.Phase == "measure" && len(p.PendingPerChannel) == 2 {
				sawPerChannel = true
				sum := 0
				for _, n := range p.PendingPerChannel {
					sum += n
				}
				if sum != p.PendingReads {
					t.Errorf("PendingPerChannel %v does not sum to PendingReads %d", p.PendingPerChannel, p.PendingReads)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Scheduler, "x2-independent") {
		t.Errorf("scheduler label %q does not mark the independent organization", rep.Scheduler)
	}
	if !sawPerChannel {
		t.Error("no measure-phase progress carried per-channel occupancy")
	}
}

// TestIndependentCommandLogChannels: the command log of an Independent run
// stamps events from both channels.
func TestIndependentCommandLogChannels(t *testing.T) {
	w, err := WorkloadFromNames("lbm", "lbm", "lbm", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	sys := quickSystem(4)
	sys.Channels = 2
	sys.ChannelMode = Independent
	seen := map[int]int{}
	_, err = RunContext(context.Background(), sys, w, NewFRFCFS(),
		WithCommandLog(func(ev CommandEvent) { seen[ev.Channel]++ }))
	if err != nil {
		t.Fatal(err)
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("command log channel coverage %v; want traffic on both channels", seen)
	}
	if len(seen) != 2 {
		t.Errorf("unexpected channel stamps: %v", seen)
	}
}

// TestIndependentAloneCacheKeying: Lockstep and Independent baselines must
// not collide in a shared AloneCache (same shape, different engine).
func TestIndependentAloneCacheKeying(t *testing.T) {
	w, err := WorkloadFromNames("lbm", "lbm", "lbm", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewAloneCache()
	sys := quickSystem(4)
	sys.Channels = 2
	if _, err := RunContext(context.Background(), sys, w, NewFRFCFS(), WithAloneCache(cache)); err != nil {
		t.Fatal(err)
	}
	lockstepEntries := cache.Len()
	if lockstepEntries == 0 {
		t.Fatal("lockstep run cached no baselines")
	}
	sys.ChannelMode = Independent
	if _, err := RunContext(context.Background(), sys, w, NewFRFCFS(), WithAloneCache(cache)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2*lockstepEntries {
		t.Errorf("cache has %d entries after lockstep+independent; want %d (separate keys per mode)",
			cache.Len(), 2*lockstepEntries)
	}
}

// TestIndependentSchedulerSingleUse: the single-use contract holds for the
// factory-backed schedulers in Independent mode too.
func TestIndependentSchedulerSingleUse(t *testing.T) {
	w, err := WorkloadFromNames("lbm", "lbm", "lbm", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	sys := quickSystem(4)
	sys.Channels = 2
	sys.ChannelMode = Independent
	s := NewPARBS(PARBSOptions{})
	if _, err := Run(sys, w, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys, w, s); err == nil {
		t.Fatal("reused scheduler accepted in independent mode")
	}
}
