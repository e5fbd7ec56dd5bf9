package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// checkMasks asserts the controller's occupancy masks and per-thread bank
// counts against the queues and counters they summarize: every bank bit set
// exactly when its queue is non-empty, every thread bit exactly when the
// thread has a buffered read, no bit past the last bank or thread, and
// BanksWithReads equal to the number of banks holding the thread's reads.
func checkMasks(t *testing.T, c *Controller, step string) {
	t.Helper()
	check := func(name string, m bitmask, n int, want func(i int) bool) {
		t.Helper()
		for i := 0; i < len(m)*64; i++ {
			if got := m.has(i); got != (i < n && want(i)) {
				t.Fatalf("after %s: %s bit %d = %v, want %v", step, name, i, got, !got)
			}
		}
	}
	check("readBanks", c.readBanks, len(c.bankReads), func(b int) bool { return c.bankReads[b].n > 0 })
	check("writeBanks", c.writeBanks, len(c.bankWrites), func(b int) bool { return c.bankWrites[b].n > 0 })
	check("readers", c.readers, c.NumThreads(), func(th int) bool { return c.perThread[th] > 0 })
	for th := 0; th < c.NumThreads(); th++ {
		n := 0
		for _, v := range c.perThreadPerBank[th] {
			if v > 0 {
				n++
			}
		}
		if got := c.BanksWithReads(th); got != n {
			t.Fatalf("after %s: BanksWithReads(%d) = %d, want %d", step, th, got, n)
		}
	}
}

// TestBankMaskTracksQueues drives random enqueue and tick sequences (every
// tick may issue commands and retire bursts) and checks the occupancy masks
// after every call. The 128-bank, 70-thread arm makes both the bank masks
// and the thread mask span more than one 64-bit word.
func TestBankMaskTracksQueues(t *testing.T) {
	for _, tc := range []struct{ banks, threads int }{{8, 3}, {128, 70}} {
		t.Run(fmt.Sprintf("banks%d-threads%d", tc.banks, tc.threads), func(t *testing.T) {
			g := dram.DefaultGeometry()
			g.Banks = tc.banks
			dev, err := dram.NewDevice(dram.DDR2_800(), g)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewController(dev, &eventedPolicy{}, DefaultConfig(tc.threads))
			if err != nil {
				t.Fatal(err)
			}
			if words := (tc.banks + 63) / 64; len(c.readBanks) != words || len(c.writeBanks) != words {
				t.Fatalf("bank masks have %d/%d words, want %d", len(c.readBanks), len(c.writeBanks), words)
			}
			rng := rand.New(rand.NewSource(int64(tc.banks)))
			emptied := 0
			for now := int64(0); now < 12_000; now++ {
				// Bursty arrivals: long quiet stretches let queues drain to
				// empty, so bits clear as well as set.
				rate := 3
				if now/2000%2 == 1 {
					rate = 40
				}
				if rng.Intn(rate) == 0 {
					c.EnqueueRead(rng.Intn(tc.threads), rng.Int63n(1<<24)*64, now)
					checkMasks(t, c, fmt.Sprintf("read enqueue at %d", now))
				}
				if rng.Intn(4*rate) == 0 {
					c.EnqueueWrite(rng.Intn(tc.threads), rng.Int63n(1<<24)*64, now)
					checkMasks(t, c, fmt.Sprintf("write enqueue at %d", now))
				}
				before := c.PendingReads() + c.PendingWrites()
				c.Tick(now)
				checkMasks(t, c, fmt.Sprintf("tick %d", now))
				if before > 0 && c.PendingReads()+c.PendingWrites() == 0 {
					emptied++
				}
			}
			if c.CommandsIssued() == 0 || emptied == 0 {
				t.Fatalf("vacuous run: %d commands issued, buffers emptied %d times", c.CommandsIssued(), emptied)
			}
		})
	}
}
