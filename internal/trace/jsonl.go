package trace

import (
	"encoding/json"
	"io"
)

// JSONL wire format: one JSON object per line. The first line is the run
// header carrying Schema and the Meta fields (runLine, encoded by
// encoding/json); every following line is one event, discriminated by
// "kind" and written and read by the hand-written codec in codec.go. Field
// order is fixed, so a write → read → write cycle is byte-identical (the
// schema pin and golden digest tests rely on this).

type runLine struct {
	Schema     string `json:"schema"`
	Kind       string `json:"kind"`
	Policy     string `json:"policy"`
	Workload   string `json:"workload"`
	Cores      int    `json:"cores"`
	Banks      int    `json:"banks"`
	Channels   int    `json:"channels,omitempty"`
	CPUPerDRAM int64  `json:"cpu_per_dram"`
	WarmupDRAM int64  `json:"warmup_dram"`
	TotalDRAM  int64  `json:"total_dram"`
	MarkingCap int    `json:"marking_cap"`
	ReadBuf    int    `json:"read_buf"`
	Events     int    `json:"events"`
	Dropped    int64  `json:"dropped"`
}

// headerLine builds the run header line with explicit event/drop counts
// (readers treat them as hints, never hard limits).
func headerLine(meta Meta, events int, dropped int64) runLine {
	return runLine{
		Schema:     Schema,
		Kind:       "run",
		Policy:     meta.Policy,
		Workload:   meta.Workload,
		Cores:      meta.Cores,
		Banks:      meta.Banks,
		Channels:   meta.Channels,
		CPUPerDRAM: meta.CPUPerDRAM,
		WarmupDRAM: meta.WarmupDRAM,
		TotalDRAM:  meta.TotalDRAM,
		MarkingCap: meta.MarkingCap,
		ReadBuf:    meta.ReadBufEntries,
		Events:     events,
		Dropped:    dropped,
	}
}

// appendHeaderLine appends the header line, encoded by encoding/json.
func appendHeaderLine(dst []byte, meta Meta, events int, dropped int64) ([]byte, error) {
	line, err := json.Marshal(headerLine(meta, events, dropped))
	if err != nil {
		return dst, err
	}
	return append(append(dst, line...), '\n'), nil
}

// flushAt is the buffered output size at which the writers hand their
// buffer to the underlying writer.
const flushAt = 64 << 10

// WriteJSONL renders the log as schema-versioned JSONL.
func WriteJSONL(w io.Writer, log *Log) error {
	buf, err := appendHeaderLine(make([]byte, 0, flushAt+512), log.Meta, len(log.Events), log.Dropped)
	if err != nil {
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
		if buf, err = appendEventLine(buf, ev, pt); err != nil {
			return err
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err = w.Write(buf)
	return err
}

// WriteJSONL renders the tracer's recorded run as schema-versioned JSONL.
func (t *Tracer) WriteJSONL(w io.Writer) error { return WriteJSONL(w, t.Log()) }
