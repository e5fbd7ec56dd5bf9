package analysis

import "unsafe"

// Bytes returns the memory the store's event columns hold, counted by
// capacity: what retaining the store costs.
func (s *Store) Bytes() int64 {
	n := int64(cap(s.kind)+cap(s.cmd)+cap(s.write)) +
		8*int64(cap(s.cycle)+cap(s.req)+cap(s.row)) +
		4*int64(cap(s.thread)+cap(s.bank)+cap(s.rank)+cap(s.channel)) +
		int64(unsafe.Sizeof([]int32(nil)))*int64(cap(s.batchPT))
	for _, pt := range s.batchPT {
		n += 4 * int64(cap(pt))
	}
	return n
}

// Bytes returns the memory the report's slices and labels hold, counted by
// capacity: what retaining the report costs beyond its fixed-size fields.
func (r *Report) Bytes() int64 {
	n := sliceBytes(r.Windows) + sliceBytes(r.Banks) + sliceBytes(r.Threads) +
		sliceBytes(r.Batches) + contributionBytes(r.TopBanks) + contributionBytes(r.TopThreads)
	for i := range r.Windows {
		w := &r.Windows[i]
		n += sliceBytes(w.Banks) + sliceBytes(w.Channels) + sliceBytes(w.Threads) +
			contributionBytes(w.TopBanks) + contributionBytes(w.TopThreads)
	}
	for i := range r.Banks {
		n += int64(len(r.Banks[i].Label))
	}
	return n
}

func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(unsafe.Sizeof(zero)) * int64(cap(s))
}

func contributionBytes(cs []Contribution) int64 {
	n := sliceBytes(cs)
	for i := range cs {
		n += int64(len(cs[i].Label))
	}
	return n
}
