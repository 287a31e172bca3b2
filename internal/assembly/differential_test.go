package assembly

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"superfast/internal/profile"
)

// refWindowed is the plain reference of the window search: the same window
// walk as assembleWindowed, but every combination of every window is
// enumerated in lexicographic order (lane 0 outermost, candidates in window
// order) with a fresh cost, no pruning, no screen and no distance cache; the
// best is replaced only on a strict <. Combos and PairChecks count the
// combinations it actually evaluates. ties counts combinations whose cost
// equalled the best so far, so a test can tell that tie-breaking was
// exercised.
func refWindowed(lanes []Lane, window int, cost func(members []int) float64) (res Result, ties int) {
	nl, n := len(lanes), len(lanes[0].Blocks)
	remaining := make([][]int, nl)
	for l, lane := range lanes {
		o := make([]int, n)
		for i := range o {
			o[i] = i
		}
		sort.SliceStable(o, func(a, b int) bool { return lane.Blocks[o[a]].PgmSum < lane.Blocks[o[b]].PgmSum })
		remaining[l] = o
	}
	for sb := 0; sb < n; sb++ {
		ws := window
		if ws > n-sb {
			ws = n - sb
		}
		idx := make([]int, nl)
		best, bestIdx := math.Inf(1), make([]int, nl)
		members := make([]int, nl)
		for {
			for l := range idx {
				members[l] = remaining[l][idx[l]]
			}
			res.Combos++
			res.PairChecks += nl * (nl - 1) / 2
			switch c := cost(members); {
			case c < best:
				best = c
				copy(bestIdx, idx)
			case c == best:
				ties++
			}
			l := nl - 1
			for ; l >= 0; l-- {
				if idx[l]++; idx[l] < ws {
					break
				}
				idx[l] = 0
			}
			if l < 0 {
				break
			}
		}
		chosen := make([]int, nl)
		for l, ci := range bestIdx {
			chosen[l] = remaining[l][ci]
			remaining[l] = append(remaining[l][:ci], remaining[l][ci+1:]...)
		}
		res.Superblocks = append(res.Superblocks, chosen)
	}
	return res, ties
}

// refProgramCost is the local-optimal objective exactly as defined: lane 0's
// block program latency, then lane by lane, in word-line order, each
// word-line's increment over the running per-word-line max.
func refProgramCost(lanes []Lane) func(members []int) float64 {
	level := make([]float64, len(lanes[0].Blocks[0].LWL))
	return func(members []int) float64 {
		b0 := lanes[0].Blocks[members[0]]
		copy(level, b0.LWL)
		sum := b0.PgmSum
		for l := 1; l < len(members); l++ {
			for wl, v := range lanes[l].Blocks[members[l]].LWL {
				if v > level[wl] {
					sum += v - level[wl]
					level[wl] = v
				}
			}
		}
		return sum
	}
}

// refPairCost is the pairwise objective: the sum of dist over every member
// pair, each distance computed afresh.
func refPairCost(lanes []Lane, dist func(a, b *profile.BlockProfile) int) func(members []int) float64 {
	return func(members []int) float64 {
		total := 0
		for l1 := range members {
			for l2 := l1 + 1; l2 < len(members); l2++ {
				total += dist(lanes[l1].Blocks[members[l1]], lanes[l2].Blocks[members[l2]])
			}
		}
		return float64(total)
	}
}

// rankDist derives a block's vector once per block and compares vectors with
// a fresh distance per pair.
func rankDist[T any](vec func(*profile.BlockProfile) T, d func(a, b T) int) func(a, b *profile.BlockProfile) int {
	vecs := make(map[*profile.BlockProfile]T)
	of := func(b *profile.BlockProfile) T {
		v, ok := vecs[b]
		if !ok {
			v = vec(b)
			vecs[b] = v
		}
		return v
	}
	return func(a, b *profile.BlockProfile) int { return d(of(a), of(b)) }
}

// quantizedLanes rounds every word-line latency of model lanes to a coarse
// grid, so equal word-line latencies, block sums, ranks and whole-combination
// costs are common and the lexicographic tie-break decides.
func quantizedLanes(t testing.TB, nLanes, nBlocks int, seed uint64, grid float64) []Lane {
	lanes := modelLanes(t, nLanes, nBlocks, seed)
	for _, lane := range lanes {
		for i, b := range lane.Blocks {
			lwl := make([]float64, len(b.LWL))
			for wl, v := range b.LWL {
				lwl[wl] = math.Round(v/grid) * grid
			}
			lane.Blocks[i] = profile.NewBlockProfile(b.Lane, b.Block, b.Layers, b.Strings, lwl, b.Erase, b.PE)
		}
	}
	return lanes
}

func TestWindowSearchMatchesReference(t *testing.T) {
	const nBlocks = 10
	type target struct {
		asm  func(window int) Assembler
		cost func(lanes []Lane) func([]int) float64
	}
	rankTarget := func(kind RankKind, vec func(*profile.BlockProfile) []int) target {
		return target{
			asm: func(w int) Assembler { return Ranked{Kind: kind, Window: w} },
			cost: func(lanes []Lane) func([]int) float64 {
				return refPairCost(lanes, rankDist(vec, profile.RankDistance))
			},
		}
	}
	targets := map[string]target{
		"OPTIMAL": {
			asm:  func(w int) Assembler { return Optimal{Window: w} },
			cost: refProgramCost,
		},
		"LWL-RANK": rankTarget(LWLRank, (*profile.BlockProfile).LWLRanks),
		"PWL-RANK": rankTarget(PWLRank, (*profile.BlockProfile).PWLRanks),
		"STR-RANK": rankTarget(STRRank, (*profile.BlockProfile).STRRanks),
		"STR-MED": {
			asm: func(w int) Assembler { return STRMedian{Window: w} },
			cost: func(lanes []Lane) func([]int) float64 {
				return refPairCost(lanes, rankDist(profile.EigenFromProfile, profile.Eigen.Distance))
			},
		},
	}
	ties := make(map[string]int)
	for nl := 1; nl <= 4; nl++ {
		datasets := map[string][]Lane{
			"model":     modelLanes(t, nl, nBlocks, uint64(100+nl)),
			"quantized": quantizedLanes(t, nl, nBlocks, uint64(200+nl), 250),
		}
		for dname, lanes := range datasets {
			for name, tg := range targets {
				for w := 1; w <= 8; w++ {
					got, err := tg.asm(w).Assemble(lanes)
					if err != nil {
						t.Fatalf("%s lanes=%d w=%d %s: %v", dname, nl, w, name, err)
					}
					want, n := refWindowed(lanes, w, tg.cost(lanes))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s lanes=%d w=%d %s:\n got %+v\nwant %+v", dname, nl, w, name, got, want)
					}
					if dname == "quantized" && nl > 1 && w > 1 {
						ties[name] += n
					}
				}
			}
		}
	}
	for name := range targets {
		if ties[name] == 0 {
			t.Errorf("%s: quantized lanes produced no tied combination; tie-breaking untested", name)
		}
	}
}

// TestOptimalScreenMarginCoversRounding pins the leaf screen's absolute
// margin. The exact in-order sum drops increments below half an ulp of the
// running total, while the screen sums them first: here the second leaf's
// seven increments of 0.375 ulp each vanish from the exact sum, so it beats
// the first leaf's one-ulp total, yet their screened sum (2.6 ulp) exceeds
// the gap of one ulp. A screen margin relative to that gap alone would drop
// the true optimum.
func TestOptimalScreenMarginCoversRounding(t *testing.T) {
	const x = 1 << 20
	ulp := math.Ldexp(1, -29) // ulp of the 8·x lane-0 total
	rep := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	blk := func(lane, block int, lwl []float64) *profile.BlockProfile {
		return profile.NewBlockProfile(lane, block, 1, len(lwl), lwl, 0, 0)
	}
	b0 := append(rep(x, 7), x+1)
	c0 := append([]float64{x + ulp}, rep(x, 7)...)
	c1 := append(rep(x+0.375*ulp, 7), x+1)
	lanes := []Lane{
		{ID: 0, Blocks: []*profile.BlockProfile{blk(0, 0, b0), blk(0, 1, rep(2*x, 8))}},
		{ID: 1, Blocks: []*profile.BlockProfile{blk(1, 0, c0), blk(1, 1, c1)}},
	}
	got, err := Optimal{Window: 2}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refWindowed(lanes, 2, refProgramCost(lanes))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, reference %v", got.Superblocks, want.Superblocks)
	}
	if want.Superblocks[0][1] != 1 {
		t.Fatalf("reference picked lane-1 block %d; the case no longer exercises the margin", want.Superblocks[0][1])
	}
}
