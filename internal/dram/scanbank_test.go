package dram

import (
	"math"
	"math/rand"
	"testing"
)

// bound is one command class's ScanBank readiness bound on one bank.
type bound struct {
	cmd Command
	at  int64
}

// scanBounds returns the bank's open row and ScanBank's bound for every
// command class: both calls' shared activate and precharge bounds, and the
// read and write CAS bounds.
func scanBounds(d *Device, b int) (int64, []bound) {
	row, tAct, tRead, tPre := d.ScanBank(b, false)
	_, _, tWrite, _ := d.ScanBank(b, true)
	return row, []bound{{CmdActivate, tAct}, {CmdPrecharge, tPre}, {CmdRead, tRead}, {CmdWrite, tWrite}}
}

// driveRandomCommands drives a fresh device with a randomized legal command
// sequence seeded by seed: 400 times it issues a random applicable (command,
// bank) pair at a cycle at or shortly after its ScanBank bound. check runs
// before the first issue and after every issue, with the cycle of the last
// issue.
func driveRandomCommands(t *testing.T, seed int64, check func(d *Device, now int64)) {
	t.Helper()
	d, err := NewDevice(DDR2_800(), DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	banks := d.Geometry().Banks
	now := int64(0)

	check(d, now)
	for i := 0; i < 400; i++ {
		type choice struct {
			bound
			bank int
		}
		var choices []choice
		for b := 0; b < banks; b++ {
			_, bounds := scanBounds(d, b)
			for _, c := range bounds {
				if c.at != math.MaxInt64 {
					choices = append(choices, choice{c, b})
				}
			}
		}
		if len(choices) == 0 {
			t.Fatal("no command applicable; device wedged")
		}
		c := choices[rng.Intn(len(choices))]
		issueAt := c.at + rng.Int63n(3)
		row := d.OpenRow(c.bank)
		if c.cmd == CmdActivate {
			row = rng.Int63n(8)
		}
		if !d.CanIssue(issueAt, c.cmd, c.bank, row) {
			t.Fatalf("seed %d step %d: %s bank %d at %d (bound %d) unexpectedly illegal",
				seed, i, c.cmd, c.bank, issueAt, c.at)
		}
		d.Issue(issueAt, c.cmd, c.bank, row)
		now = issueAt
		check(d, now)
	}
}

// TestReadyAtMatchesCanIssue holds the readiness bound ScanBank reports for
// every bank and command class, both CAS classes included, to brute-force
// CanIssue probing after every issue of a randomized legal command sequence:
// around each bound the command must be illegal below it and legal at and
// above it, and a bound of math.MaxInt64 must stay illegal over the whole
// probe horizon. This is the exactness contract the scheduling scan and the
// next-event clock rely on: a bound above the first legal cycle would make
// the controller step over it, and one below would mis-order candidates.
func TestReadyAtMatchesCanIssue(t *testing.T) {
	for _, seed := range []int64{42, 99} {
		driveRandomCommands(t, seed, func(d *Device, now int64) {
			for b := 0; b < d.Geometry().Banks; b++ {
				row, bounds := scanBounds(d, b)
				for _, c := range bounds {
					if c.at == math.MaxInt64 {
						for n := now + 1; n < now+64; n++ {
							if d.CanIssue(n, c.cmd, b, row) {
								t.Fatalf("seed %d bank %d %s: ScanBank bound MaxInt64 but CanIssue true at %d", seed, b, c.cmd, n)
							}
						}
						continue
					}
					for n := max(c.at-8, 0); n < c.at+8; n++ {
						if got, want := d.CanIssue(n, c.cmd, b, row), n >= c.at; got != want {
							t.Fatalf("seed %d bank %d %s: CanIssue(%d)=%v, ScanBank bound %d implies %v",
								seed, b, c.cmd, n, got, c.at, want)
						}
					}
				}
			}
		})
	}
}

// TestScanBankMatchesReadyAt cross-checks ScanBank's snapshot, after every
// issue of a randomized legal command sequence, against the device's other
// readiness views: the open row must equal OpenRow; the activate and
// precharge bounds must not depend on the CAS class asked for; the classes
// the bank's state precludes (an activate to an open bank, a precharge or CAS
// to a closed one) must read math.MaxInt64; and no finite bound may lie
// below BankReadyAt, the conservative per-bank bound schedulers use to skip
// whole banks. Any divergence here would silently change scheduling
// decisions.
func TestScanBankMatchesReadyAt(t *testing.T) {
	for _, seed := range []int64{42, 99} {
		driveRandomCommands(t, seed, func(d *Device, now int64) {
			for b := 0; b < d.Geometry().Banks; b++ {
				row, tAct, tRead, tPre := d.ScanBank(b, false)
				wRow, wAct, tWrite, wPre := d.ScanBank(b, true)
				if want := d.OpenRow(b); row != want || wRow != want {
					t.Fatalf("seed %d bank %d: ScanBank openRow=%d/%d, OpenRow=%d", seed, b, row, wRow, want)
				}
				if wAct != tAct || wPre != tPre {
					t.Fatalf("seed %d bank %d: isWrite moved tAct %d→%d or tPre %d→%d", seed, b, tAct, wAct, tPre, wPre)
				}
				if row < 0 && (tRead != math.MaxInt64 || tWrite != math.MaxInt64 || tPre != math.MaxInt64) {
					t.Fatalf("seed %d bank %d closed: tCAS=%d/%d tPre=%d, want MaxInt64", seed, b, tRead, tWrite, tPre)
				}
				if row >= 0 && tAct != math.MaxInt64 {
					t.Fatalf("seed %d bank %d open: tAct=%d, want MaxInt64", seed, b, tAct)
				}
				floor := d.BankReadyAt(b)
				_, bounds := scanBounds(d, b)
				for _, c := range bounds {
					if c.at < floor {
						t.Fatalf("seed %d bank %d %s: ScanBank bound %d below BankReadyAt %d", seed, b, c.cmd, c.at, floor)
					}
				}
			}
		})
	}
}
