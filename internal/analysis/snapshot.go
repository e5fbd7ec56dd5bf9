package analysis

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/trace"
)

// parbs.analysis/v2 snapshot: the columnar store serialized for reuse
// across processes (ingest once, query many times; ship a snapshot instead
// of re-parsing a multi-hundred-MB JSONL). Layout, all integers little
// endian:
//
//	magic    "parbs.analysis/v2\n"
//	u32      header JSON length, then that many bytes of snapHeader JSON
//	columns  cycle,req,row int64; thread,bank,rank,channel int32;
//	         kind,cmd,write u8 — each a packed array of Events() entries
//	batches  per KindBatch event: u32 count + that many int32 per-thread
//	         marked counts
//	u64      FNV-1a 64 of every byte after the header JSON (the columns and
//	         batch shapes) — snapshot files travel between machines, and a
//	         silently corrupt column would poison every query downstream
//
// The magic carries the version: any incompatible change bumps Schema and
// old readers fail loudly on the first 18 bytes. v2 added ingest_truncated
// to the header JSON; the body layout is unchanged, so the reader accepts
// the v1 magic too and infers the flag (a v1 store marked truncated with
// zero record-time drops could only have been cut during ingest).

// snapHeader is the snapshot's JSON header.
type snapHeader struct {
	Meta            trace.Meta `json:"meta"`
	Truncated       bool       `json:"truncated"`
	IngestTruncated bool       `json:"ingest_truncated,omitempty"`
	Dropped         int64      `json:"dropped"`
	Events          int        `json:"events"`
	Batches         int        `json:"batches"`
}

// WriteSnapshot serializes the store in parbs.analysis/v2 form.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Schema + "\n"); err != nil {
		return err
	}
	hdr, err := json.Marshal(snapHeader{
		Meta: s.meta, Truncated: s.truncated, IngestTruncated: s.ingestTruncated,
		Dropped: s.dropped, Events: len(s.kind), Batches: len(s.batchPT),
	})
	if err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(hdr)))
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}

	sum := fnv.New64a()
	body := io.MultiWriter(bw, sum)
	if err := writeI64s(body, s.cycle); err != nil {
		return err
	}
	if err := writeI64s(body, s.req); err != nil {
		return err
	}
	if err := writeI64s(body, s.row); err != nil {
		return err
	}
	if err := writeI32s(body, s.thread); err != nil {
		return err
	}
	if err := writeI32s(body, s.bank); err != nil {
		return err
	}
	if err := writeI32s(body, s.rank); err != nil {
		return err
	}
	if err := writeI32s(body, s.channel); err != nil {
		return err
	}
	if _, err := body.Write(s.kind); err != nil {
		return err
	}
	if _, err := body.Write(s.cmd); err != nil {
		return err
	}
	if err := writeBools(body, s.write); err != nil {
		return err
	}
	for _, pt := range s.batchPT {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(pt)))
		if _, err := body.Write(u32[:]); err != nil {
			return err
		}
		if err := writeI32s(body, pt); err != nil {
			return err
		}
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], sum.Sum64())
	if _, err := bw.Write(u64[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a parbs.analysis snapshot (v2 or the legacy
// v1 magic), verifying the magic, the declared lengths, and the body
// checksum.
func ReadSnapshot(r io.Reader) (*Store, error) {
	room := -1 // input bytes left for the body, when the reader knows
	if l, ok := r.(interface{ Len() int }); ok {
		room = l.Len()
	}
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Schema)+1)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("analysis: snapshot magic: %w", err)
	}
	v1 := string(magic) == SchemaV1+"\n"
	if string(magic) != Schema+"\n" && !v1 {
		return nil, fmt.Errorf("analysis: not a %s snapshot", Schema)
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	hdrLen := binary.LittleEndian.Uint32(u32[:])
	if hdrLen > 1<<20 {
		return nil, fmt.Errorf("analysis: implausible snapshot header length %d", hdrLen)
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdrBytes); err != nil {
		return nil, err
	}
	var hdr snapHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("analysis: snapshot header: %w", err)
	}
	if hdr.Events < 0 || hdr.Batches < 0 || hdr.Batches > hdr.Events {
		return nil, fmt.Errorf("analysis: implausible snapshot counts: events=%d batches=%d", hdr.Events, hdr.Batches)
	}
	if err := checkShape(hdr.Meta); err != nil {
		return nil, err
	}

	sum := fnv.New64a()
	body := io.TeeReader(br, sum)
	n := hdr.Events
	s := &Store{meta: hdr.Meta, truncated: hdr.Truncated,
		ingestTruncated: hdr.IngestTruncated, dropped: hdr.Dropped}
	if v1 && s.truncated && s.dropped == 0 {
		// v1 headers did not record the distinction; truncation without
		// record-time drops can only have come from a damaged stream.
		s.ingestTruncated = true
	}
	var err error
	if s.cycle, err = readI64s(body, n, room); err != nil {
		return nil, err
	}
	if s.req, err = readI64s(body, n, room); err != nil {
		return nil, err
	}
	if s.row, err = readI64s(body, n, room); err != nil {
		return nil, err
	}
	if s.thread, err = readI32s(body, n, room); err != nil {
		return nil, err
	}
	if s.bank, err = readI32s(body, n, room); err != nil {
		return nil, err
	}
	if s.rank, err = readI32s(body, n, room); err != nil {
		return nil, err
	}
	if s.channel, err = readI32s(body, n, room); err != nil {
		return nil, err
	}
	if s.kind, err = readU8s(body, n, room); err != nil {
		return nil, err
	}
	if s.cmd, err = readU8s(body, n, room); err != nil {
		return nil, err
	}
	if s.write, err = readBools(body, n, room); err != nil {
		return nil, err
	}
	s.batchPT = make([][]int32, 0, prealloc(hdr.Batches, 4, room))
	for range hdr.Batches {
		if _, err := io.ReadFull(body, u32[:]); err != nil {
			return nil, err
		}
		m := binary.LittleEndian.Uint32(u32[:])
		if int(m) > 1<<20 {
			return nil, fmt.Errorf("analysis: implausible batch shape length %d", m)
		}
		pt, err := readI32s(body, int(m), room)
		if err != nil {
			return nil, err
		}
		s.batchPT = append(s.batchPT, pt)
	}
	want := sum.Sum64()
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, fmt.Errorf("analysis: snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(u64[:]); got != want {
		return nil, fmt.Errorf("analysis: snapshot checksum mismatch (stored %x, computed %x)", got, want)
	}
	return s, nil
}

// chunk is the encode/decode staging size, in elements.
const chunk = 4096

func writeI64s(w io.Writer, vals []int64) error {
	buf := make([]byte, 8*chunk)
	for len(vals) > 0 {
		n := min(len(vals), chunk)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeI32s(w io.Writer, vals []int32) error {
	buf := make([]byte, 4*chunk)
	for len(vals) > 0 {
		n := min(len(vals), chunk)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeBools(w io.Writer, vals []bool) error {
	buf := make([]byte, chunk)
	for len(vals) > 0 {
		n := min(len(vals), chunk)
		for i, v := range vals[:n] {
			if v {
				buf[i] = 1
			} else {
				buf[i] = 0
			}
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// The readers below preallocate only what the input can back — n
// elements, at most room bytes' worth when the reader reported its length
// (so a real snapshot's columns get their exact size), else one chunk —
// and append as the bytes arrive: a header that declares 2^34 events over
// a short body fails on the body, not on the allocation. The staging
// buffer is sized the same way, so a run of empty batches costs nothing
// per batch beyond its slice header.

// prealloc returns the capacity for n elements of size bytes given room
// input bytes (-1: unknown).
func prealloc(n, size, room int) int {
	if room < 0 {
		return min(n, chunk)
	}
	return min(n, room/size)
}

func readI64s(r io.Reader, n, room int) ([]int64, error) {
	out := make([]int64, 0, prealloc(n, 8, room))
	buf := make([]byte, 8*min(n, chunk))
	for len(out) < n {
		m := min(n-len(out), chunk)
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[8*j:])))
		}
	}
	return out, nil
}

func readI32s(r io.Reader, n, room int) ([]int32, error) {
	out := make([]int32, 0, prealloc(n, 4, room))
	buf := make([]byte, 4*min(n, chunk))
	for len(out) < n {
		m := min(n-len(out), chunk)
		if _, err := io.ReadFull(r, buf[:4*m]); err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[4*j:])))
		}
	}
	return out, nil
}

func readU8s(r io.Reader, n, room int) ([]uint8, error) {
	out := make([]uint8, 0, prealloc(n, 1, room))
	buf := make([]byte, min(n, chunk))
	for len(out) < n {
		m := min(n-len(out), chunk)
		if _, err := io.ReadFull(r, buf[:m]); err != nil {
			return nil, err
		}
		out = append(out, buf[:m]...)
	}
	return out, nil
}

func readBools(r io.Reader, n, room int) ([]bool, error) {
	out := make([]bool, 0, prealloc(n, 1, room))
	buf := make([]byte, min(n, chunk))
	for len(out) < n {
		m := min(n-len(out), chunk)
		if _, err := io.ReadFull(r, buf[:m]); err != nil {
			return nil, err
		}
		for _, b := range buf[:m] {
			out = append(out, b != 0)
		}
	}
	return out, nil
}
