package profile

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"superfast/internal/prng"
)

// makeProfile builds a small profile with synthetic latencies for tests.
func makeProfile(lane, block int, seed uint64) *BlockProfile {
	const layers, strs = 6, 4
	src := prng.New(seed, lane, block)
	lwl := make([]float64, layers*strs)
	for i := range lwl {
		lwl[i] = 1600 + 10*math.Round(src.Normal()*3)
	}
	return NewBlockProfile(lane, block, layers, strs, lwl, 3400+src.Normal()*15, 0)
}

func TestNewBlockProfileSum(t *testing.T) {
	lwl := []float64{1, 2, 3, 4}
	p := NewBlockProfile(0, 0, 2, 2, lwl, 5, 0)
	if p.PgmSum != 10 {
		t.Fatalf("PgmSum = %v, want 10", p.PgmSum)
	}
}

func TestNewBlockProfilePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	NewBlockProfile(0, 0, 2, 2, []float64{1, 2, 3}, 0, 0)
}

func TestLWLRanksBasic(t *testing.T) {
	p := NewBlockProfile(0, 0, 1, 4, []float64{30, 10, 20, 10}, 0, 0)
	ranks := p.LWLRanks()
	want := []int{3, 0, 2, 0} // ties share the lowest rank
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("LWLRanks = %v, want %v", ranks, want)
		}
	}
}

func TestSTRRanksPerLayer(t *testing.T) {
	// 2 layers × 3 strings; layer-major indexing.
	lwl := []float64{
		5, 1, 3, // layer 0: ranks 2,0,1
		2, 2, 9, // layer 1: ranks 0,0,2
	}
	p := NewBlockProfile(0, 0, 2, 3, lwl, 0, 0)
	ranks := p.STRRanks()
	want := []int{2, 0, 1, 0, 0, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("STRRanks = %v, want %v", ranks, want)
		}
	}
}

func TestPWLRanksPerString(t *testing.T) {
	// 3 layers × 2 strings. String 0 latencies: 9,1,5 → ranks 2,0,1.
	// String 1 latencies: 4,4,2 → ranks 1,1,0.
	lwl := []float64{
		9, 4,
		1, 4,
		5, 2,
	}
	p := NewBlockProfile(0, 0, 3, 2, lwl, 0, 0)
	ranks := p.PWLRanks()
	want := []int{2, 1, 0, 1, 1, 0}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("PWLRanks = %v, want %v", ranks, want)
		}
	}
}

func TestRankDistanceIdentity(t *testing.T) {
	p := makeProfile(0, 1, 42)
	if d := RankDistance(p.STRRanks(), p.STRRanks()); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}
}

func TestRankDistanceSymmetry(t *testing.T) {
	f := func(a, b uint64) bool {
		p := makeProfile(0, 1, a)
		q := makeProfile(1, 2, b)
		return RankDistance(p.STRRanks(), q.STRRanks()) == RankDistance(q.STRRanks(), p.STRRanks())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRankDistancePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	RankDistance([]int{1}, []int{1, 2})
}

func TestEigenHalfZeroBits(t *testing.T) {
	p := makeProfile(2, 3, 7)
	e := EigenFromProfile(p)
	if e.Len() != len(p.LWL) {
		t.Fatalf("eigen length %d, want %d", e.Len(), len(p.LWL))
	}
	// Exactly half the strings per layer are marked fast (bit 0).
	ones := 0
	for i := 0; i < e.Len(); i++ {
		if e.Bit(i) {
			ones++
		}
	}
	want := p.Layers * (p.Strings - p.Strings/2)
	if ones != want {
		t.Fatalf("eigen has %d one-bits, want %d", ones, want)
	}
}

func TestEigenTieBreakSequential(t *testing.T) {
	// All strings tie: the first two must get bit 0.
	lwl := []float64{5, 5, 5, 5}
	p := NewBlockProfile(0, 0, 1, 4, lwl, 0, 0)
	e := EigenFromProfile(p)
	if e.Bit(0) || e.Bit(1) || !e.Bit(2) || !e.Bit(3) {
		t.Fatalf("tie-break wrong: %s", e)
	}
}

func TestEigenDistanceProperties(t *testing.T) {
	f := func(sa, sb uint64) bool {
		a := EigenFromProfile(makeProfile(0, 0, sa))
		b := EigenFromProfile(makeProfile(1, 1, sb))
		dab := a.Distance(b)
		return dab == b.Distance(a) && // symmetric
			a.Distance(a) == 0 && // identity
			dab >= 0 && dab <= a.Len() // bounded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenDistanceTriangle(t *testing.T) {
	f := func(sa, sb, sc uint64) bool {
		a := EigenFromProfile(makeProfile(0, 0, sa))
		b := EigenFromProfile(makeProfile(1, 1, sb))
		c := EigenFromProfile(makeProfile(2, 2, sc))
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenString(t *testing.T) {
	lwl := []float64{1, 2, 3, 4, 4, 3, 2, 1}
	p := NewBlockProfile(0, 0, 2, 4, lwl, 0, 0)
	e := EigenFromProfile(p)
	if got := e.String(); got != "0011 1100" {
		t.Fatalf("String() = %q, want \"0011 1100\"", got)
	}
}

func TestEigenSizeBytes(t *testing.T) {
	p := makeProfile(0, 0, 1)
	e := EigenFromProfile(p)
	if got, want := e.SizeBytes(), (len(p.LWL)+7)/8; got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestEigenBitPanics(t *testing.T) {
	e := EigenFromProfile(makeProfile(0, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range bit should panic")
		}
	}()
	e.Bit(e.Len())
}

func TestEigenDistancePanicsOnLengthMismatch(t *testing.T) {
	a := EigenFromProfile(makeProfile(0, 0, 1))
	b := EigenFromProfile(NewBlockProfile(0, 0, 1, 4, []float64{1, 2, 3, 4}, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	a.Distance(b)
}

func TestSortedListInsertOrder(t *testing.T) {
	var s SortedList
	s.Insert(3, 30)
	s.Insert(1, 10)
	s.Insert(2, 20)
	s.Insert(4, 10) // tie with block 1, ordered by block index
	if !s.Sorted() {
		t.Fatal("list not sorted")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.At(0).Block != 1 || s.At(1).Block != 4 || s.At(2).Block != 2 || s.At(3).Block != 3 {
		t.Fatalf("order wrong: %+v", s.entries)
	}
}

func TestSortedListHeadTail(t *testing.T) {
	var s SortedList
	for i := 0; i < 5; i++ {
		s.Insert(i, float64(i))
	}
	head := s.Head(3)
	if len(head) != 3 || head[0].Block != 0 || head[2].Block != 2 {
		t.Fatalf("Head = %+v", head)
	}
	tail := s.Tail(2)
	if len(tail) != 2 || tail[0].Block != 4 || tail[1].Block != 3 {
		t.Fatalf("Tail = %+v", tail)
	}
	if got := s.Head(99); len(got) != 5 {
		t.Fatalf("Head(99) len = %d", len(got))
	}
}

func TestSortedListRemove(t *testing.T) {
	var s SortedList
	s.Insert(1, 1)
	s.Insert(2, 2)
	if !s.Remove(1) {
		t.Fatal("Remove(1) should succeed")
	}
	if s.Remove(1) {
		t.Fatal("double remove should fail")
	}
	if s.Len() != 1 || s.At(0).Block != 2 {
		t.Fatalf("unexpected state: %+v", s.entries)
	}
}

func TestSortedListPropertySorted(t *testing.T) {
	f := func(keys []float64) bool {
		var s SortedList
		for i, k := range keys {
			if math.IsNaN(k) {
				k = 0
			}
			s.Insert(i, k)
		}
		return s.Sorted() && s.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtraProgramManual(t *testing.T) {
	a := NewBlockProfile(0, 0, 1, 2, []float64{10, 20}, 0, 0)
	b := NewBlockProfile(1, 0, 1, 2, []float64{13, 18}, 0, 0)
	got := ExtraProgram([]*BlockProfile{a, b})
	if got != 3+2 {
		t.Fatalf("ExtraProgram = %v, want 5", got)
	}
}

func TestExtraProgramProperties(t *testing.T) {
	f := func(seeds []uint64) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 6 {
			seeds = seeds[:6]
		}
		members := make([]*BlockProfile, len(seeds))
		for i, s := range seeds {
			members[i] = makeProfile(i, i, s)
		}
		x := ExtraProgram(members)
		if x < 0 {
			return false
		}
		// A single-member superblock has no extra latency.
		if ExtraProgram(members[:1]) != 0 {
			return false
		}
		// Extra latency is monotone in membership: adding a member cannot
		// decrease the per-word-line range.
		if len(members) > 1 && ExtraProgram(members[:len(members)-1]) > x {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExtraEraseManual(t *testing.T) {
	mk := func(e float64) *BlockProfile {
		return NewBlockProfile(0, 0, 1, 1, []float64{1}, e, 0)
	}
	got := ExtraErase([]*BlockProfile{mk(3400), mk(3450), mk(3420)})
	if got != 50 {
		t.Fatalf("ExtraErase = %v, want 50", got)
	}
	if ExtraErase(nil) != 0 || ExtraProgram(nil) != 0 {
		t.Fatal("empty membership should have zero extra latency")
	}
}

func TestRanksArePermutationLike(t *testing.T) {
	p := makeProfile(0, 9, 99)
	str := p.STRRanks()
	for l := 0; l < p.Layers; l++ {
		row := str[l*p.Strings : (l+1)*p.Strings]
		sorted := append([]int(nil), row...)
		sort.Ints(sorted)
		if sorted[0] != 0 {
			t.Fatalf("layer %d: min rank %d, want 0", l, sorted[0])
		}
		for _, r := range row {
			if r < 0 || r >= p.Strings {
				t.Fatalf("layer %d: rank %d out of range", l, r)
			}
		}
	}
}

// refRanks is the plain competition ranking: stably sort the indices by
// value, then give each run of equal values the sorted position of its first
// member.
func refRanks(values []float64, idx []int) []int {
	order := append([]int(nil), idx...)
	sort.SliceStable(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
	rankOf := make(map[int]int, len(idx))
	rank := 0
	for i, v := range order {
		if i > 0 && values[v] != values[order[i-1]] {
			rank = i
		}
		rankOf[v] = rank
	}
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = rankOf[v]
	}
	return out
}

func TestRanksMatchStableSortReference(t *testing.T) {
	// A 40 µs grid on a 10 µs jitter makes equal latencies common.
	for seed := uint64(1); seed <= 50; seed++ {
		const layers, strs = 8, 4
		src := prng.New(seed, 0, 0)
		lwl := make([]float64, layers*strs)
		for i := range lwl {
			lwl[i] = 40 * math.Round((1600+src.Normal()*30)/40)
		}
		p := NewBlockProfile(0, 0, layers, strs, lwl, 0, 0)
		want := make([]int, len(lwl))
		all := make([]int, len(lwl))
		for i := range all {
			all[i] = i
		}
		if got := p.LWLRanks(); !slices.Equal(got, refRanks(lwl, all)) {
			t.Fatalf("seed %d: LWLRanks %v, want %v", seed, got, refRanks(lwl, all))
		}
		for s := 0; s < strs; s++ {
			idx := make([]int, layers)
			for l := range idx {
				idx[l] = l*strs + s
			}
			for k, r := range refRanks(lwl, idx) {
				want[idx[k]] = r
			}
		}
		if got := p.PWLRanks(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: PWLRanks %v, want %v", seed, got, want)
		}
		for l := 0; l < layers; l++ {
			idx := make([]int, strs)
			for s := range idx {
				idx[s] = l*strs + s
			}
			for k, r := range refRanks(lwl, idx) {
				want[idx[k]] = r
			}
		}
		if got := p.STRRanks(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: STRRanks %v, want %v", seed, got, want)
		}
	}
}

func BenchmarkEigenDistance(b *testing.B) {
	x := EigenFromProfile(makeProfile(0, 0, 1))
	y := EigenFromProfile(makeProfile(1, 1, 2))
	var sink int
	for i := 0; i < b.N; i++ {
		sink += x.Distance(y)
	}
	_ = sink
}

func BenchmarkSTRRanks(b *testing.B) {
	p := makeProfile(0, 0, 3)
	for i := 0; i < b.N; i++ {
		p.STRRanks()
	}
}
