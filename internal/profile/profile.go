// Package profile holds the similarity data the paper's schemes gather while
// a block is programmed: the per-word-line program latency table, the block
// program-latency sum, rank vectors at three granularities (logical
// word-line, physical word-line, string), and the 1-bit-per-word-line eigen
// sequence of STR-MED/QSTR-MED, plus the per-lane sorted latency lists used
// for on-demand assembly.
//
// The latencies a profile holds come from the measuring testbed, which reads
// them through the array's shared latency kernel (pv.Kernel); a profile is
// the *gathered* view — rank vectors and eigen bits are derived here, never
// re-sampled from the model.
package profile

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// BlockProfile is the gathered characterization of one block.
type BlockProfile struct {
	Lane  int // lane (chip × plane) the block lives on
	Block int // block index within its lane

	Layers  int
	Strings int

	LWL    []float64 // program latency per logical word-line, µs
	PgmSum float64   // block program latency (sum over word-lines)
	Erase  float64   // measured block erase latency, µs
	PE     int       // P/E cycle count at measurement time
}

// NewBlockProfile builds a profile from measured word-line latencies. It
// panics if the latency slice disagrees with layers × strings; profiles are
// always constructed by code that controls both.
func NewBlockProfile(lane, block, layers, strs int, lwl []float64, erase float64, pe int) *BlockProfile {
	if len(lwl) != layers*strs {
		panic(fmt.Sprintf("profile: %d latencies for %d×%d word-lines", len(lwl), layers, strs))
	}
	sum := 0.0
	for _, v := range lwl {
		sum += v
	}
	return &BlockProfile{
		Lane: lane, Block: block,
		Layers: layers, Strings: strs,
		LWL: lwl, PgmSum: sum, Erase: erase, PE: pe,
	}
}

func (p *BlockProfile) lwlIndex(layer, str int) int { return layer*p.Strings + str }

// rankWithTies writes competition ranks (ties share the lowest rank) of the
// values at the given indices to out[idx[p]], ranking ascending by value. A
// competition rank is the number of strictly smaller values, so it is read off
// as the lower bound of the value in a sorted copy; sorted is scratch of
// len(idx). The quantized latency grid of real chips (Fig. 9) makes ties
// common, and rank-equality distances only carry information when ties exist.
func rankWithTies(values []float64, idx []int, sorted []float64, out []int) {
	for p, i := range idx {
		sorted[p] = values[i]
	}
	slices.Sort(sorted)
	for _, i := range idx {
		out[i], _ = slices.BinarySearch(sorted, values[i])
	}
}

// LWLRanks ranks all logical word-lines of the block by program latency
// (rank 0 = fastest; ties share a rank). Result is indexed by word-line.
func (p *BlockProfile) LWLRanks() []int {
	idx := make([]int, len(p.LWL))
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, len(p.LWL))
	rankWithTies(p.LWL, idx, make([]float64, len(idx)), out)
	return out
}

// PWLRanks ranks, within each string, the physical word-line layers by
// program latency (rank 0..Layers-1 per string). Indexed by word-line.
func (p *BlockProfile) PWLRanks() []int {
	out := make([]int, len(p.LWL))
	idx := make([]int, p.Layers)
	sorted := make([]float64, p.Layers)
	for s := 0; s < p.Strings; s++ {
		for l := 0; l < p.Layers; l++ {
			idx[l] = p.lwlIndex(l, s)
		}
		rankWithTies(p.LWL, idx, sorted, out)
	}
	return out
}

// STRRanks ranks, within each physical word-line layer, the strings by
// program latency (rank 0..Strings-1 per layer). Indexed by word-line.
func (p *BlockProfile) STRRanks() []int {
	out := make([]int, len(p.LWL))
	idx := make([]int, p.Strings)
	sorted := make([]float64, p.Strings)
	for l := 0; l < p.Layers; l++ {
		for s := 0; s < p.Strings; s++ {
			idx[s] = p.lwlIndex(l, s)
		}
		rankWithTies(p.LWL, idx, sorted, out)
	}
	return out
}

// RankDistance is the paper's Equation 1 distance between two rank vectors:
// the number of word-line positions whose ranks differ.
func RankDistance(a, b []int) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("profile: rank vectors of length %d and %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// Eigen is the STR-MED eigen sequence: one bit per logical word-line, zero
// for the fastest half of the strings on its layer, one otherwise. Distances
// between blocks reduce to XOR + popcount, cheap enough for a small circuit.
type Eigen struct {
	bits []uint64
	n    int
}

// EigenFromProfile derives the eigen sequence of a block: on every physical
// word-line layer the fastest ⌊Strings/2⌋ strings get bit 0, the rest bit 1.
// Ties are broken by string order, as the paper's gatherer does ("sequentially
// assigns bits zero to the first two word-lines").
func EigenFromProfile(p *BlockProfile) Eigen {
	e := Eigen{bits: make([]uint64, (len(p.LWL)+63)/64), n: len(p.LWL)}
	fast := p.Strings / 2
	if fast == 0 {
		fast = 1
	}
	type sl struct {
		str int
		lat float64
	}
	row := make([]sl, p.Strings)
	for l := 0; l < p.Layers; l++ {
		for s := 0; s < p.Strings; s++ {
			row[s] = sl{s, p.LWL[p.lwlIndex(l, s)]}
		}
		// Insertion sort on (lat, str). The key is a total order (string
		// indices are distinct), so this yields exactly the permutation the
		// previous reflective sort did, without the per-layer closure cost
		// on a hot path that sorts a handful of strings per layer.
		for i := 1; i < len(row); i++ {
			for j := i; j > 0; j-- {
				a, b := row[j-1], row[j]
				if a.lat < b.lat || (a.lat == b.lat && a.str < b.str) {
					break
				}
				row[j-1], row[j] = b, a
			}
		}
		for i := fast; i < p.Strings; i++ {
			e.setBit(p.lwlIndex(l, row[i].str))
		}
	}
	return e
}

func (e *Eigen) setBit(i int) { e.bits[i/64] |= 1 << (i % 64) }

// NewEigenBuilder returns an all-zero eigen sequence of n bits for
// incremental construction by a runtime gatherer.
func NewEigenBuilder(n int) Eigen {
	if n < 0 {
		panic(fmt.Sprintf("profile: negative eigen length %d", n))
	}
	return Eigen{bits: make([]uint64, (n+63)/64), n: n}
}

// SetBit sets bit i of the sequence to 1.
func (e *Eigen) SetBit(i int) {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("profile: eigen bit %d of %d", i, e.n))
	}
	e.setBit(i)
}

// Reset re-zeroes the sequence in place to n bits, growing the backing
// words only when needed — the reuse path for pooled runtime gatherers.
func (e *Eigen) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("profile: negative eigen length %d", n))
	}
	words := (n + 63) / 64
	if cap(e.bits) < words {
		e.bits = make([]uint64, words)
	} else {
		e.bits = e.bits[:words]
		for i := range e.bits {
			e.bits[i] = 0
		}
	}
	e.n = n
}

// CopyFrom overwrites the sequence with o's bits, reusing the receiver's
// backing storage when it fits. It lets long-lived metadata publish a pooled
// gatherer's result without taking ownership of the gatherer's buffer.
func (e *Eigen) CopyFrom(o Eigen) {
	words := (o.n + 63) / 64
	if cap(e.bits) < words {
		e.bits = make([]uint64, words)
	}
	e.bits = e.bits[:words]
	copy(e.bits, o.bits)
	e.n = o.n
}

// Len returns the number of bits in the sequence.
func (e Eigen) Len() int { return e.n }

// Bit reports bit i of the sequence.
func (e Eigen) Bit(i int) bool {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("profile: eigen bit %d of %d", i, e.n))
	}
	return e.bits[i/64]&(1<<(i%64)) != 0
}

// Distance returns the Hamming distance between two eigen sequences
// (the popcount of their XOR).
func (e Eigen) Distance(o Eigen) int {
	if e.n != o.n {
		panic(fmt.Sprintf("profile: eigen lengths %d and %d", e.n, o.n))
	}
	d := 0
	for i := range e.bits {
		d += bits.OnesCount64(e.bits[i] ^ o.bits[i])
	}
	return d
}

// String renders the sequence in the paper's "1001 0011 ..." nibble format.
func (e Eigen) String() string {
	var b strings.Builder
	for i := 0; i < e.n; i++ {
		if i > 0 && i%4 == 0 {
			b.WriteByte(' ')
		}
		if e.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SizeBytes returns the storage cost of the sequence, for the paper's
// Equation 2 space analysis (one bit per logical word-line).
func (e Eigen) SizeBytes() int { return (e.n + 7) / 8 }

// Entry is one block in a sorted latency list.
type Entry struct {
	Block int     // block index within the lane
	Key   float64 // sort key (block program latency sum)
}

// SortedList keeps the blocks of one lane ordered by program latency, fast
// to slow. It is the "sorted program latency list" of the QSTR-MED updater.
type SortedList struct {
	entries []Entry
}

// Len returns the number of blocks in the list.
func (s *SortedList) Len() int { return len(s.entries) }

// Insert adds a block, keeping the list sorted ascending by key (ties by
// block index, so the order is deterministic).
func (s *SortedList) Insert(block int, key float64) {
	i := sort.Search(len(s.entries), func(i int) bool {
		e := s.entries[i]
		return e.Key > key || (e.Key == key && e.Block >= block)
	})
	s.entries = append(s.entries, Entry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = Entry{Block: block, Key: key}
}

// Remove deletes the entry for the given block. It reports whether the block
// was present.
func (s *SortedList) Remove(block int) bool {
	for i, e := range s.entries {
		if e.Block == block {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			return true
		}
	}
	return false
}

// At returns the i-th fastest entry.
func (s *SortedList) At(i int) Entry { return s.entries[i] }

// Entries returns the list's backing storage, fastest first — a read-only
// view for selectors that need the whole lane without paying Head(Len)'s
// copy. Callers must not mutate it or retain it across list updates.
func (s *SortedList) Entries() []Entry { return s.entries }

// Head returns up to k entries from the fast end.
func (s *SortedList) Head(k int) []Entry {
	if k > len(s.entries) {
		k = len(s.entries)
	}
	out := make([]Entry, k)
	copy(out, s.entries[:k])
	return out
}

// Tail returns up to k entries from the slow end, slowest first.
func (s *SortedList) Tail(k int) []Entry {
	if k > len(s.entries) {
		k = len(s.entries)
	}
	out := make([]Entry, k)
	for i := 0; i < k; i++ {
		out[i] = s.entries[len(s.entries)-1-i]
	}
	return out
}

// Sorted reports whether the internal order is a valid ascending order.
// It exists for invariant checks in tests.
func (s *SortedList) Sorted() bool {
	return sort.SliceIsSorted(s.entries, func(a, b int) bool {
		if s.entries[a].Key != s.entries[b].Key {
			return s.entries[a].Key < s.entries[b].Key
		}
		return s.entries[a].Block < s.entries[b].Block
	})
}

// ExtraProgram computes the extra program latency of a candidate superblock
// directly from measured profiles: for every word-line, the gap between the
// slowest and fastest member, summed over all word-lines (§III-A).
func ExtraProgram(members []*BlockProfile) float64 {
	if len(members) == 0 {
		return 0
	}
	n := len(members[0].LWL)
	total := 0.0
	for wl := 0; wl < n; wl++ {
		max := math.Inf(-1)
		min := math.Inf(1)
		for _, m := range members {
			v := m.LWL[wl]
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		total += max - min
	}
	return total
}

// ExtraErase computes the extra erase latency of a candidate superblock from
// measured profiles: the gap between the slowest and fastest member erase.
func ExtraErase(members []*BlockProfile) float64 {
	if len(members) == 0 {
		return 0
	}
	max := math.Inf(-1)
	min := math.Inf(1)
	for _, m := range members {
		if m.Erase > max {
			max = m.Erase
		}
		if m.Erase < min {
			min = m.Erase
		}
	}
	return max - min
}
