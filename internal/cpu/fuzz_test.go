package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memctrl"
)

// A core script is a byte string decoded into a core configuration, a
// cyclic trace, a port rejection pattern, read latencies and a sequence of
// Tick spans. runScript plays it on a Core stepped by Tick and on one
// stepped by the per-cycle oracle (refTick), and fails on the first call
// after which the two differ in any field or in the port calls they made,
// or after which the oracle calls the port before the bound the run loop
// gates the core on: its Horizon, raised to its live BlockedUntil unless
// the call was BlockedOnPort.
//
// Layout (missing bytes read as zero):
//
//	[0]  CommitWidth 1+b&3, MaxPerBank b>>2&3, WindowSize {128,2,5,16}[b>>4&3],
//	     MSHRs {32,1,2,8}[b>>6]
//	[1]  item count, b%24; then per item a kind byte and a length byte:
//	     kind%4: 0 run of NonMem, 1 load, 2 store, 3 empty item;
//	     NonMem = length·(kind>>2&3), so 0..765; bank = kind>>4&3
//	     a rejection count b%16, then that many bytes: port call i is
//	     rejected when byte[i%count]&3 == 0
//	     a latency count b%16, then that many bytes: accepted read j
//	     completes at the end of its Tick span plus byte[j%count]; 255 never
//	[..] Tick spans, one byte each: b < 240 ticks 1+b%40 cycles,
//	     b ≥ 240 skips 3·(b-239) cycles without a Tick (a gated core)

type scriptReader struct {
	data []byte
	pos  int
}

func (r *scriptReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// cyclicTrace replays items forever (nothing when empty) and counts reads.
type cyclicTrace struct {
	items []Item
	reads int
}

func (t *cyclicTrace) Next() Item {
	if len(t.items) == 0 {
		return Item{}
	}
	it := t.items[t.reads%len(t.items)]
	t.reads++
	return it
}

type portCall struct {
	write  bool
	thread int
	addr   int64
	tag    int
	ok     bool
}

// scriptPort accepts or rejects each call by the script's pattern and logs
// every call, and the CPU cycle of each call made by the oracle.
type scriptPort struct {
	rejects []byte
	calls   []portCall
	now     int64
	at      []int64
	// accepted holds the reads accepted since the harness last drained it.
	accepted []*memctrl.Request
	nextID   int64
}

func (p *scriptPort) decide() bool {
	if len(p.rejects) == 0 {
		return true
	}
	return p.rejects[len(p.calls)%len(p.rejects)]&3 != 0
}

func (p *scriptPort) IssueRead(thread int, addr int64, tag int) bool {
	ok := p.decide()
	p.calls = append(p.calls, portCall{thread: thread, addr: addr, tag: tag, ok: ok})
	p.at = append(p.at, p.now)
	if ok {
		p.accepted = append(p.accepted, &memctrl.Request{ID: p.nextID, Thread: thread, Addr: addr, Tag: tag})
		p.nextID++
	}
	return ok
}

func (p *scriptPort) IssueWrite(thread int, addr int64) bool {
	ok := p.decide()
	p.calls = append(p.calls, portCall{write: true, thread: thread, addr: addr, ok: ok})
	p.at = append(p.at, p.now)
	return ok
}

// coreState is every field of a Core that stepping can change.
type coreState struct {
	Window       []entry
	WHead, WLen  int
	WindowCount  int
	Outstanding  int
	FetchItem    Item
	FetchPending bool
	PerBank      []int
	Completions  []completion
	CHead, CLen  int
	Stats        Stats
	BlockedUntil int64
	PortStalled  bool
}

func stateOf(c *Core) coreState {
	return coreState{
		Window: c.window, WHead: c.wHead, WLen: c.wLen, WindowCount: c.windowCount,
		Outstanding: c.outstanding, FetchItem: c.fetchItem, FetchPending: c.fetchPending,
		PerBank: c.perBank, Completions: c.completions, CHead: c.cHead, CLen: c.cLen,
		Stats: c.stats, BlockedUntil: c.blockedUntil, PortStalled: c.portStalled,
	}
}

// runScript plays script on both cores.
func runScript(t testing.TB, script []byte) {
	r := &scriptReader{data: script}
	b := r.next()
	cfg := Config{
		CommitWidth: 1 + int(b&3),
		MaxPerBank:  int(b >> 2 & 3),
		WindowSize:  []int{128, 2, 5, 16}[b>>4&3],
		MSHRs:       []int{32, 1, 2, 8}[b>>6],
	}
	items := make([]Item, int(r.next()%24))
	for i := range items {
		kind, length := r.next(), int64(r.next())
		it := Item{NonMem: length * int64(kind>>2&3)}
		switch kind % 4 {
		case 1, 2:
			it.HasAccess = true
			it.Access = Access{Addr: int64(i) * 64, Bank: int(kind >> 4 & 3), IsWrite: kind%4 == 2}
		case 3:
			it = Item{}
		}
		items[i] = it
	}
	rejects := make([]byte, int(r.next()%16))
	for i := range rejects {
		rejects[i] = r.next()
	}
	lats := make([]byte, int(r.next()%16))
	for i := range lats {
		lats[i] = r.next()
	}
	spans := script[r.pos:]

	var cores [2]*Core
	var ports [2]*scriptPort
	var traces [2]*cyclicTrace
	for i := range cores {
		traces[i] = &cyclicTrace{items: items}
		ports[i] = &scriptPort{rejects: rejects}
		c, err := NewCore(0, cfg, traces[i], ports[i])
		if err != nil {
			t.Fatal(err)
		}
		cores[i] = c
	}
	got, want := cores[0], cores[1]
	reads := 0
	cyc := int64(0)
	quiet := int64(0) // the core's port-quiet bound after its last Tick
	for i, b := range spans {
		if b >= 240 {
			cyc += 3 * int64(b-239)
			continue
		}
		n := 1 + int(b%40)
		got.Tick(cyc, n)
		calls := len(ports[1].calls)
		want.refTick(cyc, n)
		for j, at := range ports[1].at[calls:] {
			if at < quiet {
				t.Fatalf("script %x, cfg %+v: in span %d (Tick(%d, %d)) the oracle made port call %+v at cycle %d, before the published bound %d",
					script, cfg, i, cyc, n, ports[1].calls[calls+j], at, quiet)
			}
		}
		cyc += int64(n)
		if !reflect.DeepEqual(stateOf(got), stateOf(want)) || traces[0].reads != traces[1].reads ||
			!reflect.DeepEqual(ports[0].calls, ports[1].calls) {
			t.Fatalf("script %x, cfg %+v: after span %d (Tick(%d, %d)) the core diverged from the oracle:\ngot  %+v (trace reads %d)\nwant %+v (trace reads %d)\nport calls got %v\nport calls want %v",
				script, cfg, i, cyc-int64(n), n, stateOf(got), traces[0].reads, stateOf(want), traces[1].reads, ports[0].calls, ports[1].calls)
		}
		for j := range ports[0].accepted {
			lat := byte(0)
			if len(lats) > 0 {
				lat = lats[reads%len(lats)]
			}
			reads++
			if lat == 255 {
				continue
			}
			got.Complete(ports[0].accepted[j], cyc+int64(lat))
			want.Complete(ports[1].accepted[j], cyc+int64(lat))
		}
		ports[0].accepted, ports[1].accepted = ports[0].accepted[:0], ports[1].accepted[:0]
		quiet = got.Horizon()
		if !got.BlockedOnPort() {
			quiet = max(quiet, got.BlockedUntil())
		}
	}
}

// FuzzCoreTick's seed corpus, in testdata/fuzz/FuzzCoreTick, covers the
// paper's 3-wide core, widths 1 and 4, per-bank caps, windows narrower than
// the width, small MSHR files, rejected port calls, gated spans and reads
// that never complete.
func FuzzCoreTick(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			return
		}
		runScript(t, script)
	})
}

// TestCoreTickMatchesOracle plays random scripts, so the equivalence is
// checked beyond the seed corpus on every test run, not only under -fuzz.
func TestCoreTickMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		script := make([]byte, 40+rng.Intn(200))
		rng.Read(script)
		runScript(t, script)
	}
}
