package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dram"
)

// The reflective encoding/json codec the hand-written one replaced, kept
// as the test oracle: the per-kind wire structs, the two-Unmarshal event
// decoder, the struct-based event encoder and the map-based Chrome writer.
// The codec must agree with it byte for byte and value for value.

type arriveLine struct {
	Kind    string `json:"kind"`
	Cycle   int64  `json:"cycle"`
	ID      int64  `json:"id"`
	Thread  int32  `json:"thread"`
	Bank    int32  `json:"bank"`
	Row     int64  `json:"row"`
	Write   bool   `json:"write"`
	Channel int32  `json:"channel,omitempty"`
}

type markLine struct {
	Kind    string `json:"kind"`
	Cycle   int64  `json:"cycle"`
	ID      int64  `json:"id"`
	Thread  int32  `json:"thread"`
	Batch   int64  `json:"batch"`
	Channel int32  `json:"channel,omitempty"`
}

type cmdLine struct {
	Kind    string `json:"kind"`
	Cycle   int64  `json:"cycle"`
	ID      int64  `json:"id"`
	Thread  int32  `json:"thread"`
	Cmd     string `json:"cmd"`
	Bank    int32  `json:"bank"`
	Row     int64  `json:"row"`
	Rank    int32  `json:"rank"`
	Channel int32  `json:"channel,omitempty"`
}

type doneLine struct {
	Kind    string `json:"kind"`
	Cycle   int64  `json:"cycle"`
	ID      int64  `json:"id"`
	Thread  int32  `json:"thread"`
	Latency int64  `json:"latency"`
	Channel int32  `json:"channel,omitempty"`
}

type batchLine struct {
	Kind      string  `json:"kind"`
	Cycle     int64   `json:"cycle"`
	Batch     int64   `json:"batch"`
	Size      int64   `json:"size"`
	Clipped   int32   `json:"clipped"`
	PerThread []int32 `json:"per_thread"`
	Channel   int32   `json:"channel,omitempty"`
}

type batchEndLine struct {
	Kind     string `json:"kind"`
	Cycle    int64  `json:"cycle"`
	Batch    int64  `json:"batch"`
	Duration int64  `json:"duration"`
	Channel  int32  `json:"channel,omitempty"`
}

// oracleCommands maps the wire mnemonics back to dram.Command ordinals.
var oracleCommands = map[string]dram.Command{
	dram.CmdNone.String():      dram.CmdNone,
	dram.CmdActivate.String():  dram.CmdActivate,
	dram.CmdPrecharge.String(): dram.CmdPrecharge,
	dram.CmdRead.String():      dram.CmdRead,
	dram.CmdWrite.String():     dram.CmdWrite,
	dram.CmdRefresh.String():   dram.CmdRefresh,
}

// oracleParseEventLine is the reflective event-line decoder.
func oracleParseEventLine(raw []byte) (Event, []int32, error) {
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &kind); err != nil {
		return Event{}, nil, err
	}
	switch kind.Kind {
	case "arrive":
		var l arriveLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return Event{}, nil, err
		}
		return Event{Kind: KindArrive, Cycle: l.Cycle, Req: l.ID, Thread: l.Thread,
			Bank: l.Bank, Row: l.Row, Write: l.Write, Channel: l.Channel}, nil, nil
	case "mark":
		var l markLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return Event{}, nil, err
		}
		return Event{Kind: KindMark, Cycle: l.Cycle, Req: l.ID, Thread: l.Thread,
			Row: l.Batch, Channel: l.Channel}, nil, nil
	case "cmd":
		var l cmdLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return Event{}, nil, err
		}
		cmd, ok := oracleCommands[l.Cmd]
		if !ok {
			return Event{}, nil, fmt.Errorf("trace: unknown command %q", l.Cmd)
		}
		return Event{Kind: KindCommand, Cycle: l.Cycle, Req: l.ID, Thread: l.Thread,
			Bank: l.Bank, Row: l.Row, Rank: l.Rank, Cmd: uint8(cmd), Channel: l.Channel}, nil, nil
	case "done":
		var l doneLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return Event{}, nil, err
		}
		return Event{Kind: KindComplete, Cycle: l.Cycle, Req: l.ID, Thread: l.Thread,
			Row: l.Latency, Channel: l.Channel}, nil, nil
	case "batch":
		var l batchLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return Event{}, nil, err
		}
		return Event{Kind: KindBatch, Cycle: l.Cycle, Req: l.Batch, Row: l.Size,
			Rank: l.Clipped, Channel: l.Channel}, l.PerThread, nil
	case "batch_end":
		var l batchEndLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return Event{}, nil, err
		}
		return Event{Kind: KindBatchEnd, Cycle: l.Cycle, Req: l.Batch, Row: l.Duration,
			Channel: l.Channel}, nil, nil
	default:
		return Event{}, nil, fmt.Errorf("trace: unknown kind %q", kind.Kind)
	}
}

// oracleEventLine builds the wire struct for one event.
func oracleEventLine(ev Event, pt []int32) (any, error) {
	switch ev.Kind {
	case KindArrive:
		return arriveLine{Kind: "arrive", Cycle: ev.Cycle, ID: ev.Req,
			Thread: ev.Thread, Bank: ev.Bank, Row: ev.Row, Write: ev.Write,
			Channel: ev.Channel}, nil
	case KindMark:
		return markLine{Kind: "mark", Cycle: ev.Cycle, ID: ev.Req,
			Thread: ev.Thread, Batch: ev.Row, Channel: ev.Channel}, nil
	case KindCommand:
		return cmdLine{Kind: "cmd", Cycle: ev.Cycle, ID: ev.Req,
			Thread: ev.Thread, Cmd: dram.Command(ev.Cmd).String(),
			Bank: ev.Bank, Row: ev.Row, Rank: ev.Rank, Channel: ev.Channel}, nil
	case KindComplete:
		return doneLine{Kind: "done", Cycle: ev.Cycle, ID: ev.Req,
			Thread: ev.Thread, Latency: ev.Row, Channel: ev.Channel}, nil
	case KindBatch:
		return batchLine{Kind: "batch", Cycle: ev.Cycle, Batch: ev.Req,
			Size: ev.Row, Clipped: ev.Rank, PerThread: pt, Channel: ev.Channel}, nil
	case KindBatchEnd:
		return batchEndLine{Kind: "batch_end", Cycle: ev.Cycle,
			Batch: ev.Req, Duration: ev.Row, Channel: ev.Channel}, nil
	default:
		return nil, fmt.Errorf("trace: unknown event kind %d", ev.Kind)
	}
}

// oracleWriteJSONL renders the log through encoding/json.
func oracleWriteJSONL(w io.Writer, log *Log) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(headerLine(log.Meta, len(log.Events), log.Dropped)); err != nil {
		return err
	}
	batch := 0
	for _, ev := range log.Events {
		var pt []int32
		if ev.Kind == KindBatch {
			if batch < len(log.BatchPerThread) {
				pt = log.BatchPerThread[batch]
			}
			batch++
		}
		line, err := oracleEventLine(ev, pt)
		if err != nil {
			return err
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int32          `json:"tid"`
	TS    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	ID    *int64         `json:"id,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// oracleWriteChrome is the map-based Chrome writer.
func oracleWriteChrome(w io.Writer, log *Log) error {
	out := chromeFile{
		TraceEvents:     make([]chromeEvent, 0, len(log.Events)+2*log.Meta.Cores),
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"schema":      Schema,
			"policy":      log.Meta.Policy,
			"workload":    log.Meta.Workload,
			"marking_cap": log.Meta.MarkingCap,
			"read_buf":    log.Meta.ReadBufEntries,
			"time_unit":   "1 ts = 1 DRAM cycle",
			"dropped":     log.Dropped,
		},
	}
	add := func(ev chromeEvent) { out.TraceEvents = append(out.TraceEvents, ev) }

	add(chromeEvent{Name: "process_name", Phase: "M", PID: 0,
		Args: map[string]any{"name": "memory requests (" + log.Meta.Policy + ")"}})
	add(chromeEvent{Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "scheduler batches"}})
	for t := 0; t < log.Meta.Cores; t++ {
		add(chromeEvent{Name: "thread_name", Phase: "M", PID: 0, TID: int32(t),
			Args: map[string]any{"name": fmt.Sprintf("thread %d", t)}})
	}

	live := make(map[int64]*reqSpan)
	for _, ev := range log.Events {
		switch ev.Kind {
		case KindArrive:
			live[ev.Req] = &reqSpan{arrival: ev.Cycle, marked: -1, batch: -1,
				firstCmd: -1, bank: ev.Bank, row: ev.Row, write: ev.Write}
		case KindMark:
			if r := live[ev.Req]; r != nil {
				r.marked = ev.Cycle
				r.batch = ev.Row
			}
		case KindCommand:
			if r := live[ev.Req]; r != nil && r.firstCmd < 0 {
				r.firstCmd = ev.Cycle
			}
			tid := ev.Thread
			if tid < 0 {
				tid = int32(log.Meta.Cores)
			}
			add(chromeEvent{Name: dram.Command(ev.Cmd).String(), Phase: "i", PID: 0, TID: tid,
				TS: ev.Cycle, Cat: "cmd", Scope: "t",
				Args: map[string]any{"id": ev.Req, "bank": ev.Bank,
					"row": ev.Row, "rank": ev.Rank}})
		case KindComplete:
			r := live[ev.Req]
			if r == nil {
				continue
			}
			delete(live, ev.Req)
			dur := ev.Cycle - r.arrival
			kind := "RD"
			if r.write {
				kind = "WR"
			}
			args := map[string]any{
				"id": ev.Req, "bank": r.bank, "row": r.row,
				"latency": ev.Row,
			}
			markEnd := r.firstCmd
			if markEnd < 0 {
				markEnd = ev.Cycle
			}
			if r.marked >= 0 {
				args["batch"] = r.batch
			}
			if r.marked >= 0 && markEnd >= r.marked {
				args["wait_unmarked"] = r.marked - r.arrival
				args["wait_marked"] = markEnd - r.marked
			} else {
				args["wait_unmarked"] = markEnd - r.arrival
				args["wait_marked"] = 0
			}
			args["service"] = ev.Cycle - markEnd
			add(chromeEvent{Name: fmt.Sprintf("%s req %d", kind, ev.Req),
				Phase: "X", PID: 0, TID: ev.Thread, TS: r.arrival, Dur: &dur,
				Cat: "request", Args: args})
		case KindBatch:
			id := ev.Req
			add(chromeEvent{Name: fmt.Sprintf("batch %d", ev.Req), Phase: "b",
				PID: 1, TS: ev.Cycle, ID: &id, Cat: "batch",
				Args: map[string]any{"size": ev.Row, "clipped": ev.Rank}})
		case KindBatchEnd:
			id := ev.Req
			add(chromeEvent{Name: fmt.Sprintf("batch %d", ev.Req), Phase: "e",
				PID: 1, TS: ev.Cycle, ID: &id, Cat: "batch",
				Args: map[string]any{"duration": ev.Row}})
		}
	}
	return json.NewEncoder(w).Encode(out)
}
