package assembly

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"superfast/internal/profile"
	"superfast/internal/pv"
)

// modelLanes builds lanes of block profiles straight from the variation
// model, mimicking what the chamber harness gathers.
func modelLanes(t testing.TB, nLanes, nBlocks int, seed uint64) []Lane {
	t.Helper()
	p := pv.DefaultParams()
	p.Seed = seed
	p.Layers = 12
	p.Strings = 4
	m := pv.New(p)
	lanes := make([]Lane, nLanes)
	for l := 0; l < nLanes; l++ {
		blocks := make([]*profile.BlockProfile, nBlocks)
		for b := 0; b < nBlocks; b++ {
			lwl := make([]float64, p.Layers*p.Strings)
			for layer := 0; layer < p.Layers; layer++ {
				for s := 0; s < p.Strings; s++ {
					lwl[layer*p.Strings+s] = m.ProgramLatency(pv.Coord{
						Chip: l, Block: b, Layer: layer, String: s,
					}, 0, 1)
				}
			}
			ers := m.EraseLatency(l, 0, b, 0, 1)
			blocks[b] = profile.NewBlockProfile(l, b, p.Layers, p.Strings, lwl, ers, 0)
		}
		lanes[l] = Lane{ID: l, Blocks: blocks}
	}
	return lanes
}

var allAssemblers = []Assembler{
	Random{Seed: 1},
	Sequential{},
	ByErase{},
	ByPgmSum{},
	Optimal{Window: 4},
	Ranked{Kind: LWLRank, Window: 4},
	Ranked{Kind: PWLRank, Window: 4},
	Ranked{Kind: STRRank, Window: 4},
	STRMedian{Window: 4},
}

func TestAllAssemblersPartition(t *testing.T) {
	lanes := modelLanes(t, 4, 16, 11)
	for _, a := range allAssemblers {
		res, err := a.Assemble(lanes)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := CheckPartition(lanes, res.Superblocks); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestAssemblersRejectBadLanes(t *testing.T) {
	for _, a := range allAssemblers {
		if _, err := a.Assemble(nil); !errors.Is(err, ErrLaneShape) {
			t.Errorf("%s: empty lanes gave %v", a.Name(), err)
		}
	}
	lanes := modelLanes(t, 2, 4, 3)
	lanes[1].Blocks = lanes[1].Blocks[:3]
	for _, a := range allAssemblers {
		if _, err := a.Assemble(lanes); !errors.Is(err, ErrLaneShape) {
			t.Errorf("%s: ragged lanes gave %v", a.Name(), err)
		}
	}
}

func TestOptimalRejectsBadWindow(t *testing.T) {
	lanes := modelLanes(t, 2, 4, 3)
	if _, err := (Optimal{Window: 0}).Assemble(lanes); err == nil {
		t.Fatal("window 0 should fail")
	}
}

func TestRankedRejectsUnknownKind(t *testing.T) {
	lanes := modelLanes(t, 2, 4, 3)
	if _, err := (Ranked{Kind: RankKind(9), Window: 4}).Assemble(lanes); err == nil {
		t.Fatal("unknown rank kind should fail")
	}
}

func TestSequentialPairsSameIndex(t *testing.T) {
	lanes := modelLanes(t, 3, 8, 5)
	res, err := Sequential{}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	for k, sb := range res.Superblocks {
		want := lanes[0].Blocks[sb[0]].Block
		for l, bi := range sb {
			if lanes[l].Blocks[bi].Block != want {
				t.Fatalf("superblock %d mixes block indices", k)
			}
		}
	}
}

func TestByPgmSumPairsByRankOrder(t *testing.T) {
	lanes := modelLanes(t, 2, 10, 9)
	res, err := ByPgmSum{}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	// Superblock k must pair the k-th fastest block of each lane, so the
	// sums must be non-decreasing with k within each lane.
	for l := range lanes {
		prev := math.Inf(-1)
		for k, sb := range res.Superblocks {
			sum := lanes[l].Blocks[sb[l]].PgmSum
			if sum < prev {
				t.Fatalf("lane %d superblock %d out of order", l, k)
			}
			prev = sum
		}
	}
}

func TestOptimalBeatsRandom(t *testing.T) {
	lanes := modelLanes(t, 4, 32, 21)
	randRes, err := Random{Seed: 5}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := Optimal{Window: 6}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Evaluate(lanes, randRes.Superblocks)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := Evaluate(lanes, optRes.Superblocks)
	if err != nil {
		t.Fatal(err)
	}
	if mo.MeanPgm >= mr.MeanPgm {
		t.Fatalf("optimal (%v) should beat random (%v)", mo.MeanPgm, mr.MeanPgm)
	}
}

// superblockPgmLatency is the multi-plane program cost of a superblock: the
// sum over word-lines of the slowest member's latency.
func superblockPgmLatency(members []*profile.BlockProfile) float64 {
	total := 0.0
	for wl := range members[0].LWL {
		max := members[0].LWL[wl]
		for _, m := range members[1:] {
			if m.LWL[wl] > max {
				max = m.LWL[wl]
			}
		}
		total += max
	}
	return total
}

func TestOptimalMatchesBruteForceSingleWindow(t *testing.T) {
	// With window == block count the whole lane is one window; verify the
	// first superblock is the true global minimum-program-latency
	// combination, checked against flat brute force.
	lanes := modelLanes(t, 3, 4, 31)
	res, err := Optimal{Window: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Superblocks[0]
	got := superblockPgmLatency([]*profile.BlockProfile{
		lanes[0].Blocks[first[0]], lanes[1].Blocks[first[1]], lanes[2].Blocks[first[2]],
	})
	best := math.Inf(1)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				v := superblockPgmLatency([]*profile.BlockProfile{
					lanes[0].Blocks[a], lanes[1].Blocks[b], lanes[2].Blocks[c],
				})
				if v < best {
					best = v
				}
			}
		}
	}
	if math.Abs(got-best) > 1e-9 {
		t.Fatalf("optimal first superblock latency = %v, brute force best = %v", got, best)
	}
}

func TestPairCheckAccountingMatchesPaper(t *testing.T) {
	// Paper §IV-B: four planes, window 4 → 256 combinations, 6 pairs each,
	// 1,536 distance checks per superblock.
	lanes := modelLanes(t, 4, 8, 41)
	res, err := STRMedian{Window: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	// First superblock: full window of 4 in each of 4 lanes.
	// Later windows shrink near the end; check the first step's share by
	// assembling a lane set with exactly 4 blocks.
	lanes4 := modelLanes(t, 4, 4, 41)
	res4, err := STRMedian{Window: 4}.Assemble(lanes4)
	if err != nil {
		t.Fatal(err)
	}
	// Steps have windows 4,3,2,1 → combos 256+81+16+1 = 354, pairs ×6.
	if res4.Combos != 354 {
		t.Fatalf("Combos = %d, want 354", res4.Combos)
	}
	if res4.PairChecks != 354*6 {
		t.Fatalf("PairChecks = %d, want %d", res4.PairChecks, 354*6)
	}
	// And the first full window of the larger set charges 256 combos.
	if res.Combos < 256 {
		t.Fatalf("Combos = %d, want >= 256 for the first window", res.Combos)
	}
}

func TestOptimalComboAccounting(t *testing.T) {
	lanes := modelLanes(t, 4, 4, 43)
	res, err := Optimal{Window: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Combos != 354 { // 4^4 + 3^4 + 2^4 + 1
		t.Fatalf("Combos = %d, want 354", res.Combos)
	}
}

func TestRankedKindsDiffer(t *testing.T) {
	lanes := modelLanes(t, 4, 12, 51)
	kinds := []RankKind{LWLRank, PWLRank, STRRank}
	for _, k := range kinds {
		res, err := Ranked{Kind: k, Window: 4}.Assemble(lanes)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := CheckPartition(lanes, res.Superblocks); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestRankKindString(t *testing.T) {
	if LWLRank.String() != "LWL-RANK" || PWLRank.String() != "PWL-RANK" || STRRank.String() != "STR-RANK" {
		t.Fatal("RankKind names wrong")
	}
	if RankKind(7).String() != "RankKind(7)" {
		t.Fatal("unknown kind formatting wrong")
	}
}

func TestEvaluateMeans(t *testing.T) {
	lanes := modelLanes(t, 2, 6, 61)
	res, err := Sequential{}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(lanes, res.Superblocks)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range m.ExtraPgm {
		if v < 0 {
			t.Fatal("negative extra latency")
		}
		sum += v
	}
	if math.Abs(m.MeanPgm-sum/float64(len(m.ExtraPgm))) > 1e-9 {
		t.Fatalf("MeanPgm = %v, want %v", m.MeanPgm, sum/float64(len(m.ExtraPgm)))
	}
}

func TestEvaluateRejectsBadSuperblocks(t *testing.T) {
	lanes := modelLanes(t, 2, 4, 71)
	if _, err := Evaluate(lanes, [][]int{{0}}); err == nil {
		t.Fatal("wrong member count should fail")
	}
	if _, err := Evaluate(lanes, [][]int{{0, 99}}); err == nil {
		t.Fatal("out-of-range index should fail")
	}
}

func TestCheckPartitionCatchesDuplicates(t *testing.T) {
	lanes := modelLanes(t, 2, 3, 81)
	bad := [][]int{{0, 0}, {1, 1}, {2, 1}} // lane 1 uses block 1 twice
	if err := CheckPartition(lanes, bad); err == nil {
		t.Fatal("duplicate use should fail")
	}
	short := [][]int{{0, 0}}
	if err := CheckPartition(lanes, short); err == nil {
		t.Fatal("wrong superblock count should fail")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	lanes := modelLanes(t, 3, 10, 91)
	r1, _ := Random{Seed: 7}.Assemble(lanes)
	r2, _ := Random{Seed: 7}.Assemble(lanes)
	r3, _ := Random{Seed: 8}.Assemble(lanes)
	same := func(a, b [][]int) bool {
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(r1.Superblocks, r2.Superblocks) {
		t.Fatal("same seed should reproduce")
	}
	if same(r1.Superblocks, r3.Superblocks) {
		t.Fatal("different seeds should differ")
	}
}

func TestWindowOnePairsSortedOrder(t *testing.T) {
	// Window 1 degenerates every windowed method to PGM-LTN zip.
	lanes := modelLanes(t, 3, 8, 95)
	want, _ := ByPgmSum{}.Assemble(lanes)
	for _, a := range []Assembler{Optimal{Window: 1}, STRMedian{Window: 1}, Ranked{Kind: STRRank, Window: 1}} {
		got, err := a.Assemble(lanes)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Superblocks {
			for l := range want.Superblocks[k] {
				if got.Superblocks[k][l] != want.Superblocks[k][l] {
					t.Fatalf("%s window 1 differs from PGM-LTN at sb %d", a.Name(), k)
				}
			}
		}
	}
}

func TestAssemblePropertyAnyShape(t *testing.T) {
	f := func(nLanes, nBlocks, window uint8, seed uint64) bool {
		nl := 2 + int(nLanes)%3
		nb := 2 + int(nBlocks)%6
		w := 1 + int(window)%4
		lanes := modelLanes(t, nl, nb, seed)
		for _, a := range []Assembler{Optimal{Window: w}, STRMedian{Window: w}} {
			res, err := a.Assemble(lanes)
			if err != nil {
				return false
			}
			if CheckPartition(lanes, res.Superblocks) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimalWindow8(b *testing.B) {
	lanes := modelLanes(b, 4, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Optimal{Window: 8}).Assemble(lanes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankedWindow8(b *testing.B) {
	lanes := modelLanes(b, 4, 32, 1)
	for _, kind := range []RankKind{LWLRank, STRRank} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (Ranked{Kind: kind, Window: 8}).Assemble(lanes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSTRMedianWindow4(b *testing.B) {
	lanes := modelLanes(b, 4, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (STRMedian{Window: 4}).Assemble(lanes); err != nil {
			b.Fatal(err)
		}
	}
}
