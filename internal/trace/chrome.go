package trace

import (
	"io"
	"strconv"

	"repro/internal/dram"
)

// Chrome trace-event rendering: the JSON object format understood by
// Perfetto and chrome://tracing. Each simulated thread becomes a track
// (pid 0, tid = thread); every request is an "X" complete event spanning
// arrival → data return, with the wait decomposition in args; individual
// DRAM commands are "i" instant events on the issuing thread's track; and
// batches are "b"/"e" async spans on a dedicated "scheduler" process
// (pid 1). DRAM cycles map one-to-one onto the format's microsecond
// timestamps — absolute wall time is meaningless for a simulator, and the
// 1:1 mapping keeps cycle arithmetic readable in the UI.

// reqSpan accumulates one request's lifecycle while scanning the event
// stream, until its completion event folds it into an "X" span.
type reqSpan struct {
	arrival  int64
	marked   int64 // cycle marked into a batch, -1 if never
	batch    int64 // batch index, -1 if never marked
	firstCmd int64 // first command issued on its behalf, -1 if none yet
	bank     int32
	row      int64
	write    bool
}

// chromeWriter streams trace events. It writes the bytes encoding/json
// wrote for the former reflective document: fields in declaration order
// (name, ph, pid, tid, ts, then dur, id, cat, s and args when set), args
// keys sorted, and strings HTML-escaped.
type chromeWriter struct {
	w      io.Writer
	buf    []byte
	events int
	err    error
}

// begin opens one trace event: its name, phase, process, track and
// timestamp. The caller appends the optional fields, then calls end.
func (c *chromeWriter) begin(name string, ph string, pid int, tid int32, ts int64) {
	if c.events > 0 {
		c.buf = append(c.buf, ',')
	}
	c.events++
	c.buf = appendString(append(c.buf, `{"name":`...), name)
	c.head(ph, pid, tid, ts)
}

// head writes the fields that follow an event's name.
func (c *chromeWriter) head(ph string, pid int, tid int32, ts int64) {
	c.buf = append(c.buf, `,"ph":"`...)
	c.buf = append(c.buf, ph...)
	c.buf = appendInt(c.buf, `","pid":`, int64(pid))
	c.buf = appendInt(c.buf, `,"tid":`, int64(tid))
	c.buf = appendInt(c.buf, `,"ts":`, ts)
}

// beginNumbered opens an event named prefix followed by n, a name that
// needs no escaping.
func (c *chromeWriter) beginNumbered(prefix string, n int64, ph string, pid int, tid int32, ts int64) {
	if c.events > 0 {
		c.buf = append(c.buf, ',')
	}
	c.events++
	c.buf = append(append(c.buf, `{"name":"`...), prefix...)
	c.buf = append(strconv.AppendInt(c.buf, n, 10), '"')
	c.head(ph, pid, tid, ts)
}

// end closes the event and hands full buffers to the writer. The render
// stops at the first write error, so the buffer never holds more than
// flushAt bytes and one event.
func (c *chromeWriter) end() {
	c.buf = append(c.buf, '}')
	if len(c.buf) >= flushAt {
		_, c.err = c.w.Write(c.buf)
		c.buf = c.buf[:0]
	}
}

// WriteChrome renders the log as Chrome trace-event JSON: one compact JSON
// value, then a newline. It stops at the first write error and returns it.
func WriteChrome(w io.Writer, log *Log) error {
	return (&chromeWriter{w: w, buf: make([]byte, 0, flushAt+1024)}).render(log)
}

// render writes the whole document for WriteChrome.
func (c *chromeWriter) render(log *Log) error {
	c.buf = append(c.buf, `{"traceEvents":[`...)

	c.begin("process_name", "M", 0, 0, 0)
	c.buf = appendString(append(c.buf, `,"args":{"name":`...), "memory requests ("+log.Meta.Policy+")")
	c.buf = append(c.buf, '}')
	c.end()
	c.begin("process_name", "M", 1, 0, 0)
	c.buf = append(c.buf, `,"args":{"name":"scheduler batches"}`...)
	c.end()
	for t := 0; t < log.Meta.Cores && c.err == nil; t++ {
		c.begin("thread_name", "M", 0, int32(t), 0)
		c.buf = append(strconv.AppendInt(append(c.buf, `,"args":{"name":"thread `...), int64(t), 10), `"}`...)
		c.end()
	}

	live := make(map[int64]reqSpan)
	for _, ev := range log.Events {
		if c.err != nil {
			return c.err
		}
		switch ev.Kind {
		case KindArrive:
			live[ev.Req] = reqSpan{arrival: ev.Cycle, marked: -1, batch: -1,
				firstCmd: -1, bank: ev.Bank, row: ev.Row, write: ev.Write}
		case KindMark:
			if r, ok := live[ev.Req]; ok {
				r.marked = ev.Cycle
				r.batch = ev.Row
				live[ev.Req] = r
			}
		case KindCommand:
			if r, ok := live[ev.Req]; ok && r.firstCmd < 0 {
				r.firstCmd = ev.Cycle
				live[ev.Req] = r
			}
			tid := ev.Thread
			if tid < 0 {
				tid = int32(log.Meta.Cores) // controller/refresh track
			}
			c.begin(dram.Command(ev.Cmd).String(), "i", 0, tid, ev.Cycle)
			c.buf = append(c.buf, `,"cat":"cmd","s":"t"`...)
			c.buf = appendInt(c.buf, `,"args":{"bank":`, int64(ev.Bank))
			c.buf = appendInt(c.buf, `,"id":`, ev.Req)
			c.buf = appendInt(c.buf, `,"rank":`, int64(ev.Rank))
			c.buf = appendInt(c.buf, `,"row":`, ev.Row)
			c.buf = append(c.buf, '}')
			c.end()
		case KindComplete:
			r, ok := live[ev.Req]
			if !ok {
				continue // arrived before tracing started
			}
			delete(live, ev.Req)
			prefix := "RD req "
			if r.write {
				prefix = "WR req "
			}
			// Wait decomposition in the phases internal/analysis
			// attributes: unmarked-queued, marked-waiting, service. A
			// request serviced before it was marked (swept into a batch
			// after its first command) has no marked wait: its whole
			// pre-service wait is unmarked, as analysis counts it.
			markEnd := r.firstCmd
			if markEnd < 0 {
				markEnd = ev.Cycle
			}
			waitUnmarked, waitMarked := markEnd-r.arrival, int64(0)
			if r.marked >= 0 && markEnd >= r.marked {
				waitUnmarked, waitMarked = r.marked-r.arrival, markEnd-r.marked
			}
			c.beginNumbered(prefix, ev.Req, "X", 0, ev.Thread, r.arrival)
			c.buf = appendInt(c.buf, `,"dur":`, ev.Cycle-r.arrival)
			c.buf = append(c.buf, `,"cat":"request"`...)
			c.buf = appendInt(c.buf, `,"args":{"bank":`, int64(r.bank))
			if r.marked >= 0 {
				c.buf = appendInt(c.buf, `,"batch":`, r.batch)
			}
			c.buf = appendInt(c.buf, `,"id":`, ev.Req)
			c.buf = appendInt(c.buf, `,"latency":`, ev.Row)
			c.buf = appendInt(c.buf, `,"row":`, r.row)
			c.buf = appendInt(c.buf, `,"service":`, ev.Cycle-markEnd)
			c.buf = appendInt(c.buf, `,"wait_marked":`, waitMarked)
			c.buf = appendInt(c.buf, `,"wait_unmarked":`, waitUnmarked)
			c.buf = append(c.buf, '}')
			c.end()
		case KindBatch:
			c.beginNumbered("batch ", ev.Req, "b", 1, 0, ev.Cycle)
			c.buf = appendInt(c.buf, `,"id":`, ev.Req)
			c.buf = append(c.buf, `,"cat":"batch"`...)
			c.buf = appendInt(c.buf, `,"args":{"clipped":`, int64(ev.Rank))
			c.buf = appendInt(c.buf, `,"size":`, ev.Row)
			c.buf = append(c.buf, '}')
			c.end()
		case KindBatchEnd:
			c.beginNumbered("batch ", ev.Req, "e", 1, 0, ev.Cycle)
			c.buf = appendInt(c.buf, `,"id":`, ev.Req)
			c.buf = append(c.buf, `,"cat":"batch"`...)
			c.buf = appendInt(c.buf, `,"args":{"duration":`, ev.Row)
			c.buf = append(c.buf, '}')
			c.end()
		}
	}

	// otherData keys in encoding/json's sorted map order.
	c.buf = appendInt(c.buf, `],"displayTimeUnit":"ns","otherData":{"dropped":`, log.Dropped)
	c.buf = appendInt(c.buf, `,"marking_cap":`, int64(log.Meta.MarkingCap))
	c.buf = appendString(append(c.buf, `,"policy":`...), log.Meta.Policy)
	c.buf = appendInt(c.buf, `,"read_buf":`, int64(log.Meta.ReadBufEntries))
	c.buf = appendString(append(c.buf, `,"schema":`...), Schema)
	c.buf = append(c.buf, `,"time_unit":"1 ts = 1 DRAM cycle"`...)
	c.buf = appendString(append(c.buf, `,"workload":`...), log.Meta.Workload)
	c.buf = append(c.buf, "}}\n"...)
	if c.err != nil {
		return c.err
	}
	_, err := c.w.Write(c.buf)
	return err
}

// WriteChrome renders the tracer's recorded run as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error { return WriteChrome(w, t.Log()) }
