package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
)

// edgeLines are event lines that probe encoding/json's decoding rules:
// key order, whitespace, unknown and duplicate keys, case folding, escapes,
// null, range limits, fractions and exponents, fields of other line kinds,
// per_thread reuse across duplicates, and malformed JSON.
var edgeLines = []string{
	`{"kind":"arrive","cycle":1,"id":2,"thread":3,"bank":4,"row":5,"write":true,"channel":6}`,
	" \t{ \"kind\" : \"arrive\" , \"write\" : false }\r\n ",
	`{"cycle":7,"thread":-1,"kind":"mark","batch":3,"id":9}`,
	`{"kind":"mark","x":{"a":[1,2,{"b":null}],"c":"\u00e9\n"},"y":[],"z":{}}`,
	`{"kind":"mark","cycle":1,"cycle":2,"cycle":null}`,
	`{"KIND":"mark","Cycle":3,"cYcLe":4}`,
	`{"\u006bind":"mark","\u0043ycle":5}`,
	`{"kind":"m\u0061rk","cycle":6}`,
	`{"kind":"mark","cycle":null,"thread":null,"channel":null}`,
	`{"kind":"mark","thread":2147483647,"channel":-2147483648}`,
	`{"kind":"mark","thread":2147483648}`,
	`{"kind":"mark","channel":-2147483649}`,
	`{"kind":"mark","cycle":9223372036854775807,"id":-9223372036854775808}`,
	`{"kind":"mark","cycle":9223372036854775808}`,
	`{"kind":"mark","id":-9223372036854775809}`,
	`{"kind":"mark","cycle":99999999999999999999999}`,
	`{"kind":"mark","cycle":1.5}`,
	`{"kind":"mark","cycle":1.0}`,
	`{"kind":"mark","cycle":1e3}`,
	`{"kind":"mark","cycle":1E+3}`,
	`{"kind":"mark","cycle":-0}`,
	`{"kind":"mark","cycle":"5"}`,
	`{"kind":"mark","cycle":true}`,
	`{"kind":"mark","cycle":[1]}`,
	`{"kind":"mark","cycle":{}}`,
	`{"kind":"mark","cmd":5,"write":"no","per_thread":"x","size":1.5}`,
	`{"kind":"cmd","cmd":5}`,
	`{"kind":"cmd","cmd":"RD","bank":1,"row":2,"rank":-1}`,
	`{"kind":"cmd"}`,
	`{"kind":"cmd","cmd":null}`,
	`{"kind":"cmd","cmd":"NOP"}`,
	`{"kind":"cmd","cmd":"???"}`,
	`{"kind":"cmd","cmd":"rd"}`,
	`{"kind":"cmd","cmd":"R\u0044"}`,
	`{"kind":"cmd","cmd":"RD","cmd":"WR"}`,
	`{"kind":"cmd","cmd":"RD","cmd":null}`,
	`{"kind":"done","latency":40,"id":3}`,
	`{"kind":"batch_end","batch":2,"duration":40,"channel":0}`,
	`{"kind":"batch","cycle":1,"batch":2,"size":3,"clipped":4,"per_thread":[1,0,2]}`,
	`{"kind":"batch","per_thread":[]}`,
	`{"kind":"batch","per_thread":null}`,
	`{"kind":"batch"}`,
	`{"kind":"batch","per_thread":[ 1 , 2 ]}`,
	`{"kind":"batch","per_thread":[1,2],"per_thread":[null,5,null]}`,
	`{"kind":"batch","per_thread":[1,2,3],"per_thread":[9],"per_thread":[null,null,null,null]}`,
	`{"kind":"batch","per_thread":[1,2,3],"per_thread":[],"per_thread":[null]}`,
	`{"kind":"batch","per_thread":[1,2,3],"per_thread":null,"per_thread":[null,null]}`,
	`{"kind":"batch","per_thread":[1],"per_thread":null}`,
	`{"kind":"batch","per_thread":[null]}`,
	`{"kind":"batch","per_thread":[1.5]}`,
	`{"kind":"batch","per_thread":[2147483648]}`,
	`{"kind":"batch","per_thread":["1"]}`,
	`{"kind":"batch","per_thread":[[1]]}`,
	`{"kind":"batch","per_thread":"x"}`,
	`{"kind":"batch","per_thread":{}}`,
	`{"kind":"arrive","per_thread":"x","batch":"y"}`,
	`{"kind":"batch","ſize":3,"SIZE":4,"ſize":5}`,
	`{"kind":"arrive","ban` + "\u212a" + `":3}`,
	`{"kind":"arrive","ban\u212a":3}`,
	`{"kind":"arrive","bank":3,"BANK":4}`,
	`{"kınd":"arrive"}`,
	`{"kind":"arrive","write":"true"}`,
	`{"kind":"arrive","write":1}`,
	`{"kind":"arrive","write":true,"write":null}`,
	`{"kind":"arrive"} {}`,
	`{"kind":"arrive"}x`,
	`{"kind":"arrive"},`,
	`[]`, `null`, `""`, `5`, `{}`, ``, ` `, `{`, `}`, `{"kind"`, `{"kind":`,
	`{"kind":null}`,
	`{"kind":"arrive","kind":null}`,
	`{"kind":"arrive","kind":"mark","batch":4}`,
	`{"kind":5}`,
	`{"kind":"arrive","kind":5}`,
	`{"kind":"bogus"}`,
	`{"kind":"ARRIVE"}`,
	`{"kind":"arrive",}`,
	`{,"kind":"arrive"}`,
	`{"kind":"arrive" "cycle":1}`,
	`{"kind":"arrive","cycle" 1}`,
	`{"kind":"arr\u0000ive"}`,
	`{"kind":"\ud800"}`,
	`{"kind":"\ud83d\ude00"}`,
	`{"k\ud800ind":"mark"}`,
	`{"kind":"mark","x":"` + "\x01" + `"}`,
	`{"kind":"mark","x":"` + "\xff\xfe" + `"}`,
	`{"kind":"mark","` + "\xff" + `":1}`,
	`{"kind":"mark","x":"\x"}`,
	`{"kind":"mark","x":"\u12"}`,
	`{"kind":"mark","x":"\u12G4"}`,
	`{"kind":"mark","x":"abc`,
	`{"kind":"mark","x":tru}`,
	`{"kind":"mark","x":nul}`,
	`{"kind":"mark","x":falsey}`,
	`{"kind":"mark","x":01}`,
	`{"kind":"mark","x":-}`,
	`{"kind":"mark","x":1.}`,
	`{"kind":"mark","x":.5}`,
	`{"kind":"mark","x":+1}`,
	`{"kind":"mark","x":1e+}`,
	`{"kind":"mark","x":[1,]}`,
	`{"kind":"mark","x":[1 2]}`,
	`{"kind":"mark","x":{"a"}}`,
	`{"kind":"mark","x":{1:2}}`,
	`{"kind":"mark","cycle":1 }` + "\n",
	"\xef\xbb\xbf{\"kind\":\"mark\"}",
	// The line's object is depth 1; encoding/json allows depth 10000.
	`{"kind":"mark","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"kind":"mark","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"kind":"mark","x":` + strings.Repeat(`{"a":`, 9999) + "1" + strings.Repeat("}", 9999) + `}`,
	`{"kind":"mark","x":` + strings.Repeat(`{"a":`, 10000) + "1" + strings.Repeat("}", 10000) + `}`,
	`{"kind":"arrive","per_thread":[` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `]}`,
	`{"kind":"arrive","per_thread":[` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `]}`,
	`{"kind":"batch","per_thread":[` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `]}`,
}

// checkAgainstOracle reports whether the codec and the reflective oracle
// agree on raw.
func checkAgainstOracle(t *testing.T, raw []byte) {
	t.Helper()
	ev, pt, err := ParseEventLine(raw)
	oev, opt, oerr := oracleParseEventLine(raw)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%.200q: codec err %v, oracle err %v", raw, err, oerr)
	}
	if err != nil {
		return
	}
	if ev != oev || !reflect.DeepEqual(pt, opt) {
		t.Fatalf("%.200q:\ncodec  %+v %#v\noracle %+v %#v", raw, ev, pt, oev, opt)
	}
	// A reused decoder (the Scanner's) must agree too.
	var d lineDecoder
	d.decode([]byte(`{"kind":"batch","per_thread":[7,7,7,7,7,7,7,7]}`))
	sev, spt, serr := d.decode(raw)
	if serr != nil || sev != oev || !reflect.DeepEqual(spt, opt) {
		t.Fatalf("%.200q: reused decoder gave %+v %#v %v", raw, sev, spt, serr)
	}
}

func TestDecoderMatchesOracle(t *testing.T) {
	for _, line := range edgeLines {
		checkAgainstOracle(t, []byte(line))
	}
	for _, line := range writerLines(t) {
		checkAgainstOracle(t, line)
	}
}

// writerLines returns the event lines of real writer output: the sample
// run, every kind on a nonzero channel, and batches with and without
// shapes.
func writerLines(t testing.TB) [][]byte {
	log := sampleTracer().Log()
	for _, ev := range append([]Event(nil), log.Events...) {
		ev.Channel = 3
		log.Events = append(log.Events, ev)
	}
	log.BatchPerThread = append(log.BatchPerThread, []int32{})
	log.Events = append(log.Events, Event{Kind: KindBatch, Cycle: 70, Req: 1})
	log.Events = append(log.Events, Event{Kind: KindBatch, Cycle: 80, Req: 2})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, log); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	return lines[1:]
}

// FuzzParseEventLine checks the codec against the reflective oracle in
// both directions: same result when either accepts, an error when either
// errors, and never a panic.
func FuzzParseEventLine(f *testing.F) {
	for _, line := range edgeLines {
		if len(line) < 1024 {
			f.Add([]byte(line))
		}
	}
	for _, line := range writerLines(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAgainstOracle(t, raw)
	})
}

// randomEvent draws an event with fields from a mix of small, extreme and
// random values.
func randomEvent(rng *rand.Rand) (Event, []int32) {
	i64 := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Intn(100))
		case 1:
			return []int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)]
		default:
			return rng.Int63() - rng.Int63()
		}
	}
	i32 := func() int32 {
		if rng.Intn(3) == 0 {
			return []int32{math.MinInt32, math.MaxInt32, -1, 0}[rng.Intn(4)]
		}
		return int32(i64())
	}
	ev := Event{Kind: Kind(rng.Intn(6)), Cycle: i64(), Req: i64(), Row: i64(),
		Thread: i32(), Bank: i32(), Rank: i32(), Cmd: uint8(rng.Intn(8)),
		Write: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		ev.Channel = i32()
	}
	var pt []int32
	if ev.Kind == KindBatch && rng.Intn(4) > 0 {
		pt = make([]int32, rng.Intn(5))
		for i := range pt {
			pt[i] = i32()
		}
	}
	return ev, pt
}

// TestEncoderMatchesOracle: every event line is the bytes encoding/json
// wrote for the wire structs, and decodes back to the event.
func TestEncoderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		ev, pt := randomEvent(rng)
		got, err := appendEventLine(nil, ev, pt)
		if err != nil {
			t.Fatal(err)
		}
		line, _ := oracleEventLine(ev, pt)
		want, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("event %+v:\ncodec  %s\noracle %s", ev, got, want)
		}
		back, bpt, err := ParseEventLine(got)
		if ev.Kind != KindCommand || ev.Cmd <= uint8(dram.CmdRefresh) {
			if err != nil {
				t.Fatalf("%s: %v", got, err)
			}
			if ev.Kind != KindArrive {
				back.Write = ev.Write
			}
			if ev.Kind != KindCommand {
				back.Cmd = ev.Cmd
			}
			if want := wireEvent(ev); back != want || !reflect.DeepEqual(bpt, pt) {
				t.Fatalf("%s decoded to %+v %v, want %+v %v", got, back, bpt, want, pt)
			}
		}
	}
	if _, err := appendEventLine(nil, Event{Kind: 6}, nil); err == nil {
		t.Error("unknown kind encoded without error")
	}
}

// wireEvent zeroes the fields ev's line kind does not carry (except Write
// and Cmd, which the caller restores).
func wireEvent(ev Event) Event {
	out := Event{Kind: ev.Kind, Cycle: ev.Cycle, Req: ev.Req, Row: ev.Row,
		Channel: ev.Channel, Write: ev.Write, Cmd: ev.Cmd}
	switch ev.Kind {
	case KindArrive:
		out.Thread, out.Bank = ev.Thread, ev.Bank
	case KindMark, KindComplete:
		out.Thread = ev.Thread
	case KindCommand:
		out.Thread, out.Bank, out.Rank = ev.Thread, ev.Bank, ev.Rank
	case KindBatch:
		out.Rank = ev.Rank
	}
	return out
}

// randomString mixes plain text with every byte class encoding/json
// escapes: HTML-significant and control bytes, invalid UTF-8 and the
// U+2028/U+2029 separators.
func randomString(rng *rand.Rand) string {
	pieces := []string{"PAR-BS", "a", " ", "<", ">", "&", `"`, `\`, "\x00",
		"\x1f", "\x7f", "\b", "\f", "\n", "\r", "\t", "\xff", "\xe2\x80",
		"\u2028", "\u2029", "é", "\U0001F600", "\ufffd", "/"}
	var b strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: codec %s, encoding/json %s", s, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		check(string([]byte{byte(b)}))
		check("x" + string([]byte{byte(b)}) + "y")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		check(randomString(rng))
	}
}

// randomLog draws a log whose events follow plausible request lifecycles
// sprinkled with orphan marks, commands and completions.
func randomLog(rng *rand.Rand) *Log {
	log := &Log{
		Meta: Meta{Policy: randomString(rng), Workload: randomString(rng),
			Cores: rng.Intn(5), Banks: rng.Intn(9), Channels: rng.Intn(3),
			CPUPerDRAM: int64(rng.Intn(20)), TotalDRAM: rng.Int63(),
			MarkingCap: rng.Intn(6) - 1, ReadBufEntries: rng.Intn(200)},
		Dropped: int64(rng.Intn(3)),
	}
	for n := rng.Intn(200); n > 0; n-- {
		ev, pt := randomEvent(rng)
		if rng.Intn(2) == 0 {
			ev.Req = int64(rng.Intn(8)) // collide so lifecycles connect
			ev.Cycle = int64(rng.Intn(1000))
		}
		log.Events = append(log.Events, ev)
		if ev.Kind == KindBatch && rng.Intn(5) > 0 {
			log.BatchPerThread = append(log.BatchPerThread, pt)
		}
	}
	return log
}

// TestWritersMatchOracle: WriteJSONL and WriteChrome write exactly what the
// reflective writers did, on random logs.
func TestWritersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		log := randomLog(rng)
		var got, want bytes.Buffer
		if err := WriteJSONL(&got, log); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteJSONL(&want, log); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("log %d: JSONL differs:\ncodec  %s\noracle %s", i, got.Bytes(), want.Bytes())
		}
		got.Reset()
		want.Reset()
		if err := WriteChrome(&got, log); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteChrome(&want, log); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("log %d: Chrome differs:\ncodec  %s\noracle %s", i, got.Bytes(), want.Bytes())
		}
	}
}

// TestParseEventLineAllocs guards the decoder's allocation-free path:
// every non-batch line of real writer output decodes without allocating.
func TestParseEventLineAllocs(t *testing.T) {
	for _, line := range writerLines(t) {
		if bytes.Contains(line, []byte(`"kind":"batch"`)) {
			continue
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := ParseEventLine(line); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per parse, want 0", line, n)
		}
	}
}

// BenchmarkParseEventLine times the decoder over a mix of real lines; the
// Oracle variant is the reflective decoder it replaced.
func BenchmarkParseEventLine(b *testing.B) {
	lines := writerLines(b)
	b.Run("Codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ParseEventLine(lines[i%len(lines)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := oracleParseEventLine(lines[i%len(lines)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
