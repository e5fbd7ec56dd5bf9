package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's base
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int    `json:"op"`     // op index, -1 outside ops
}

// recorder keeps spans and counts in memory for the traced run. A nil
// recorder records nothing, so the untraced run passes nil through the
// same code.
type recorder struct {
	base   time.Time
	spans  []span
	open   []int // stack of open span indices
	op     int
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), op: -1, counts: map[string]float64{}}
}

// begin opens a span nested in the innermost open span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.base)), Parent: parent, Op: r.op})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.base))
	r.open = r.open[:len(r.open)-1]
}

// addAt records a span measured elsewhere (a server-side phase) at its
// own wall-clock interval, as a child of the innermost open span.
func (r *recorder) addAt(name string, start, end time.Time) {
	if r == nil {
		return
	}
	i := r.begin(name)
	r.spans[i].Start, r.spans[i].End = int64(start.Sub(r.base)), int64(end.Sub(r.base))
	r.open = r.open[:len(r.open)-1]
}

// count adds v to a named counter.
func (r *recorder) count(name string, v float64) {
	if r != nil {
		r.counts[name] += v
	}
}

// setOp tags subsequent spans with op index op.
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = op
	}
}

// durations returns every duration of spans named name, in milliseconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, in nanoseconds.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// summary prints, per span name, the count and median total and self time.
func (r *recorder) summary() []string {
	self := selfTimes(r.spans)
	total := map[string][]float64{}
	selfMS := map[string][]float64{}
	var names []string
	for i, s := range r.spans {
		if _, ok := total[s.Name]; !ok {
			names = append(names, s.Name)
		}
		total[s.Name] = append(total[s.Name], float64(s.End-s.Start)/1e6)
		selfMS[s.Name] = append(selfMS[s.Name], float64(self[i])/1e6)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("%-34s %6s %12s %12s", "span", "count", "p50 ms", "self p50 ms")}
	for _, n := range names {
		out = append(out, fmt.Sprintf("%-34s %6d %12.3f %12.3f", n, len(total[n]), median(total[n]), median(selfMS[n])))
	}
	return out
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
