package memctrl

// bitmask is a set of small non-negative integers (bank or thread indices),
// one bit each, packed into 64-bit words: index i is bit i%64 of word i/64.
// It is multi-word because dram.Geometry admits any power-of-two bank count
// and Config any thread count. Scans visit members in ascending order,
// word by word, popping the lowest set bit with one TrailingZeros64 per
// member (`for ; word != 0; word &= word - 1`), so a scan over the set
// costs its population, not its capacity.
//
// The controller keeps three: readBanks and writeBanks (banks whose read or
// write queue is non-empty) drive bestCandidate, and readers
// (threads with at least one buffered read) lets STFM charge interference to
// waiting threads only. Each bit flips exactly where its count crosses 0↔1.
type bitmask []uint64

func newBitmask(n int) bitmask { return make(bitmask, (n+63)/64) }

func (m bitmask) set(i int)      { m[i>>6] |= 1 << uint(i&63) }
func (m bitmask) clear(i int)    { m[i>>6] &^= 1 << uint(i&63) }
func (m bitmask) has(i int) bool { return m[i>>6]&(1<<uint(i&63)) != 0 }
