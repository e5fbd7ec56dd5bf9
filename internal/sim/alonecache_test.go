package sim

import (
	"testing"

	"repro/internal/workload"
)

// TestAloneCacheNormalizedKey: a hit returns RunAlone's outcome without
// allocating (every parbs.RunContext call looks its baselines up), systems
// that differ only in fields the alone run normalizes away share an entry,
// and the channel layout does not.
func TestAloneCacheNormalizedKey(t *testing.T) {
	cfg := quickCfg(4)
	p := workload.MustByName("hmmer")
	want, err := RunAlone(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var c AloneCache
	if got, err := c.Alone(cfg, p, true); err != nil || got != want {
		t.Fatalf("miss = %+v, %v; want RunAlone's %+v", got, err, want)
	}
	var hit bool
	if n := testing.AllocsPerRun(100, func() {
		out, err := c.Alone(cfg, p, true)
		hit = err == nil && out == want
	}); n != 0 || !hit {
		t.Errorf("hit allocates %.1f times per call (equal to RunAlone: %v), want 0", n, hit)
	}
	same := cfg
	same.Cores, same.Ctrl.Threads, same.ForceTicked = 16, 16, true
	if out, err := c.Alone(same, p, true); err != nil || out != want || c.Len() != 1 {
		t.Errorf("core count and ForceTicked must not split the key: len %d, err %v", c.Len(), err)
	}
	if _, err := c.Alone(cfg, p, false); err != nil || c.Len() != 2 {
		t.Errorf("independent baseline shares the lock-step entry: len %d, err %v", c.Len(), err)
	}
}
