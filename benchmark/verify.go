package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	parbs "repro"
)

// defaultSeed is the workload seed used when --seed is not given; the
// digests in pinned.json are for this seed.
const defaultSeed = 1

//go:embed pinned.json
var pinnedJSON []byte

// pinnedDigests maps a workload name to the result digest of each op index
// at defaultSeed, for the default run length.
func pinnedDigests() (map[string][]string, error) {
	var m map[string][]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("parse pinned.json: %w", err)
	}
	return m, nil
}

// digester accumulates a canonical text form of simulated results and
// hashes it. Floats are written with full precision so any change in a
// simulated statistic changes the digest.
type digester struct{ b strings.Builder }

func (d *digester) str(s string) { d.b.WriteString(s); d.b.WriteByte('|') }
func (d *digester) int(v int64)  { d.str(strconv.FormatInt(v, 10)) }
func (d *digester) flt(v float64) {
	d.str(strconv.FormatFloat(v, 'g', -1, 64))
}

func (d *digester) report(r parbs.Report) {
	d.str(r.Scheduler)
	d.flt(r.Unfairness)
	d.flt(r.WeightedSpeedup)
	d.flt(r.HmeanSpeedup)
	d.int(r.WorstCaseLatency)
	d.flt(r.BusUtilization)
	for _, t := range r.Threads {
		d.str(t.Benchmark)
		d.flt(t.MemSlowdown)
		d.flt(t.IPC)
		d.flt(t.BLP)
		d.flt(t.RowHitRate)
		d.flt(t.ASTPerReq)
	}
}

func (d *digester) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(h[:8])
}

// checker verifies each op's digest. Ops cycle through a list of inputs
// (listLen entries; 0 when inputs never repeat), so op i is checked
// against the pinned digest of its list entry when pins exist (the default
// seed), and against the digest the entry produced on its first pass.
type checker struct {
	pins    []string
	listLen int
	first   map[int]string
}

func newChecker(pins []string, listLen int) *checker {
	return &checker{pins: pins, listLen: listLen, first: map[int]string{}}
}

func (c *checker) check(op int, digest string) error {
	entry := op
	if c.listLen > 0 {
		entry = op % c.listLen
	}
	if entry < len(c.pins) && c.pins[entry] != digest {
		return fmt.Errorf("op %d digest %s, pinned %s", op, digest, c.pins[entry])
	}
	if want, ok := c.first[entry]; ok && want != digest {
		return fmt.Errorf("op %d digest %s differs from the first pass's %s", op, digest, want)
	}
	c.first[entry] = digest
	return nil
}

// paperF5 is the Case Study I unfairness per paper scheduler: what the
// paper reports and what this simulator reproduces (EXPERIMENTS.md, F5).
var paperF5 = []struct {
	sched             string
	paper, reproduced float64
}{
	{"FR-FCFS", 5.26, 3.82},
	{"FCFS", 1.72, 3.50},
	{"NFQ", 1.71, 2.28},
	{"STFM", 1.42, 1.71},
	{"PAR-BS", 1.07, 1.21},
}

// checkF5 verifies a Case Study I sweep against EXPERIMENTS.md's F5 row
// (unfairness to two decimals, schedulers in paper order).
func checkF5(reps []parbs.Report) error {
	if len(reps) != len(paperF5) {
		return fmt.Errorf("case study I: %d reports, want %d", len(reps), len(paperF5))
	}
	for i, want := range paperF5 {
		got := math.Round(reps[i].Unfairness*100) / 100
		if reps[i].Scheduler != want.sched || got != want.reproduced {
			return fmt.Errorf("case study I: %s unfairness %.2f, EXPERIMENTS.md F5 has %s %.2f",
				reps[i].Scheduler, got, want.sched, want.reproduced)
		}
	}
	return nil
}
