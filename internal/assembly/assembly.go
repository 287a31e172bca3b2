// Package assembly implements the paper's eight superblock-organization
// directions (§IV-A): random (the baseline), sequential, erase-latency,
// program-latency, local-optimal, LWL-rank, PWL-rank, STR-rank and
// STR-median assembly, together with the combination/pair-check cost
// accounting used in the paper's computing-overhead analysis (§VI-B2).
//
// All strategies consume per-lane lists of gathered block profiles and emit
// superblocks: one block per lane. The window-based strategies walk each
// lane's blocks sorted fast-to-slow and, per superblock, choose one block
// per lane out of the leading W unassigned candidates.
//
// Profiles arrive from the chamber testbed, whose measurements are served by
// the array's shared latency kernel (pv.Kernel): re-assembling at another
// window or P/E step re-reads cached static latencies instead of re-sampling
// the model from scratch.
package assembly

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"superfast/internal/prng"
	"superfast/internal/profile"
)

// Lane is the candidate block set of one plane lane.
type Lane struct {
	ID     int
	Blocks []*profile.BlockProfile
}

// Result is the output of an assembler.
type Result struct {
	// Superblocks[k][lane] indexes into lanes[lane].Blocks.
	Superblocks [][]int
	// PairChecks counts similarity evaluations using the paper's
	// accounting: every candidate combination charges one check per block
	// pair (window 4, 4 lanes → 256·6 = 1,536 for STR-MED; 12 for
	// QSTR-MED).
	PairChecks int
	// Combos counts candidate combinations considered (window 8, 4 lanes
	// → up to 4,096 per superblock for the local-optimal search).
	Combos int
}

// Assembler organizes the blocks of several lanes into superblocks.
type Assembler interface {
	Name() string
	Assemble(lanes []Lane) (Result, error)
}

// ErrLaneShape reports lanes unsuitable for assembly.
var ErrLaneShape = errors.New("assembly: lanes must be non-empty and equally sized")

func checkLanes(lanes []Lane) error {
	if len(lanes) == 0 || len(lanes[0].Blocks) == 0 {
		return ErrLaneShape
	}
	n := len(lanes[0].Blocks)
	wls := len(lanes[0].Blocks[0].LWL)
	for _, l := range lanes {
		if len(l.Blocks) != n {
			return fmt.Errorf("%w: lane %d has %d blocks, lane %d has %d",
				ErrLaneShape, lanes[0].ID, n, l.ID, len(l.Blocks))
		}
		for _, b := range l.Blocks {
			if len(b.LWL) != wls {
				return fmt.Errorf("%w: block profiles disagree on word-line count", ErrLaneShape)
			}
		}
	}
	return nil
}

// zip builds superblocks by pairing the i-th entry of each lane's order.
func zip(orders [][]int) [][]int {
	n := len(orders[0])
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		sb := make([]int, len(orders))
		for l := range orders {
			sb[l] = orders[l][i]
		}
		out[i] = sb
	}
	return out
}

func identityOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

func orderByKey(blocks []*profile.BlockProfile, key func(*profile.BlockProfile) float64) []int {
	o := identityOrder(len(blocks))
	sort.SliceStable(o, func(a, b int) bool { return key(blocks[o[a]]) < key(blocks[o[b]]) })
	return o
}

// Random assembles superblocks by shuffling every lane independently — the
// paper's baseline.
type Random struct {
	Seed uint64
}

// Name implements Assembler.
func (Random) Name() string { return "RANDOM" }

// Assemble implements Assembler.
func (r Random) Assemble(lanes []Lane) (Result, error) {
	if err := checkLanes(lanes); err != nil {
		return Result{}, err
	}
	orders := make([][]int, len(lanes))
	for i, l := range lanes {
		orders[i] = prng.New(r.Seed, 0x9a7d, l.ID).Perm(len(l.Blocks))
	}
	return Result{Superblocks: zip(orders)}, nil
}

// Sequential pairs blocks with the same sequence number on every lane —
// the organization commonly implemented in modern SSDs (§IV-A1).
type Sequential struct{}

// Name implements Assembler.
func (Sequential) Name() string { return "SEQUENTIAL" }

// Assemble implements Assembler.
func (Sequential) Assemble(lanes []Lane) (Result, error) {
	if err := checkLanes(lanes); err != nil {
		return Result{}, err
	}
	orders := make([][]int, len(lanes))
	for i, l := range lanes {
		orders[i] = orderByKey(l.Blocks, func(b *profile.BlockProfile) float64 { return float64(b.Block) })
	}
	return Result{Superblocks: zip(orders)}, nil
}

// ByErase pairs the i-th fastest-erasing block of every lane (§IV-A2).
type ByErase struct{}

// Name implements Assembler.
func (ByErase) Name() string { return "ERS-LTN" }

// Assemble implements Assembler.
func (ByErase) Assemble(lanes []Lane) (Result, error) {
	if err := checkLanes(lanes); err != nil {
		return Result{}, err
	}
	orders := make([][]int, len(lanes))
	for i, l := range lanes {
		orders[i] = orderByKey(l.Blocks, func(b *profile.BlockProfile) float64 { return b.Erase })
	}
	return Result{Superblocks: zip(orders)}, nil
}

// ByPgmSum pairs the i-th fastest-programming block of every lane, using the
// sum of word-line program latencies as the block latency (§IV-A3).
type ByPgmSum struct{}

// Name implements Assembler.
func (ByPgmSum) Name() string { return "PGM-LTN" }

// Assemble implements Assembler.
func (ByPgmSum) Assemble(lanes []Lane) (Result, error) {
	if err := checkLanes(lanes); err != nil {
		return Result{}, err
	}
	orders := make([][]int, len(lanes))
	for i, l := range lanes {
		orders[i] = orderByKey(l.Blocks, func(b *profile.BlockProfile) float64 { return b.PgmSum })
	}
	return Result{Superblocks: zip(orders)}, nil
}

// picker chooses one candidate per lane for the next superblock. cands[l] is
// lane l's window: indices into lanes[l].Blocks of its leading unassigned
// blocks, fastest first. The picker charges res and writes the position
// within cands[l] of lane l's choice to choice[l]. cands aliases the walk's
// own bookkeeping and must not be retained.
type picker func(cands [][]int, choice []int, res *Result)

// assembleWindowed drives the shared window walk: lanes sorted fast-to-slow,
// and for every superblock a picker chooses one candidate per lane out of the
// first window unassigned blocks of each lane. newPicker runs once per call,
// after the lanes are validated, so per-call picker state may be sized by
// them.
func assembleWindowed(lanes []Lane, window int, newPicker func() picker) (Result, error) {
	if err := checkLanes(lanes); err != nil {
		return Result{}, err
	}
	if window <= 0 {
		return Result{}, fmt.Errorf("assembly: window must be positive, got %d", window)
	}
	nl, n := len(lanes), len(lanes[0].Blocks)
	// remaining[l] holds unassigned block indices, fastest first; every
	// window is a prefix of it.
	remaining := make([][]int, nl)
	for i, l := range lanes {
		remaining[i] = orderByKey(l.Blocks, func(b *profile.BlockProfile) float64 { return b.PgmSum })
	}
	pick := newPicker()
	res := Result{Superblocks: make([][]int, n)}
	members := make([]int, n*nl)
	cands := make([][]int, nl)
	choice := make([]int, nl)
	for sb := 0; sb < n; sb++ {
		ws := min(window, n-sb)
		for l := range cands {
			cands[l] = remaining[l][:ws]
		}
		pick(cands, choice, &res)
		sbm := members[sb*nl : (sb+1)*nl : (sb+1)*nl]
		for l, ci := range choice {
			sbm[l] = remaining[l][ci]
			remaining[l] = append(remaining[l][:ci], remaining[l][ci+1:]...)
		}
		res.Superblocks[sb] = sbm
	}
	return res, nil
}

// Optimal is the local-optimal assembly (§IV-A4): per window it brute-forces
// every combination (with branch-and-bound pruning, which cannot change the
// result) for the minimal superblock program latency — the sum over
// word-lines of the slowest member's latency, which is what a multi-plane
// program actually costs. Minimizing the total latency both pairs fast
// blocks together and aligns their per-word-line patterns, so the extra
// latency drops as a consequence. It is the impractical ground reference of
// Tables I and V.
type Optimal struct {
	Window int
}

// Name implements Assembler.
func (o Optimal) Name() string { return fmt.Sprintf("OPTIMAL (%d)", o.Window) }

// Assemble implements Assembler.
func (o Optimal) Assemble(lanes []Lane) (Result, error) {
	return assembleWindowed(lanes, o.Window, func() picker { return newOptimalSearch(lanes).pickOptimal })
}

// chargeNominal charges the paper's nominal cost of a window search: every
// combination (the product of the lanes' candidate counts) checks every
// block pair. The pickers evaluate far less — they prune, screen and cache,
// speed-ups that cannot change the chosen combination — and that actual work
// is deliberately not reported: PairChecks and Combos stay the paper's
// charge, the figures its computing-overhead analysis compares.
func chargeNominal(cands [][]int, res *Result) {
	combos := 1
	for _, cs := range cands {
		combos *= len(cs)
	}
	res.Combos += combos
	res.PairChecks += combos * len(cands) * (len(cands) - 1) / 2
}

// screenSlack is the relative margin of the local-optimal candidate screen; see
// pickOptimal.
const screenSlack = 1e-9

// optimalSearch is the per-call state of the local-optimal window search.
type optimalSearch struct {
	lanes  []Lane
	cands  [][]int
	choice []int
	cur    []int // candidate positions of the combination being extended
	// lvl[k][wl] is the max latency of word-line wl over the blocks chosen
	// on lanes 0..k: lvl[0] aliases the lane-0 block's LWL and the last
	// lane's level is never written.
	lvl  [][]float64
	best float64
}

func newOptimalSearch(lanes []Lane) *optimalSearch {
	nWL := len(lanes[0].Blocks[0].LWL)
	s := &optimalSearch{lanes: lanes, cur: make([]int, len(lanes)), lvl: make([][]float64, len(lanes))}
	for k := 1; k < len(lanes)-1; k++ {
		s.lvl[k] = make([]float64, nWL)
	}
	return s
}

// pickOptimal picks the window combination of minimal superblock program
// latency — the sum over word-lines of the slowest chosen block's latency —
// and returns exactly what an exhaustive enumeration would:
//
//   - Lanes are enumerated in order and candidates in window order, and the
//     best is replaced only on a strict <, so of equal totals the
//     lexicographically first combination wins.
//   - A combination's latency is accumulated lane by lane in word-line order,
//     adding each word-line's increment over the running max. Increments are
//     non-negative, so prefix sums only rise (rounded addition is monotone)
//     and a partial sum at or above the best total prunes its whole subtree.
//   - Each candidate is first screened: its increments are summed with four
//     independent accumulators, stopping as soon as they reach
//     (best − partial)·(1+ε) + best·ε, ε = 1e-9. The screen and the exact
//     in-order sum each round by at most n·2⁻⁵³ relative to best for n
//     word-lines, far inside ε, so a candidate the screen drops would fail
//     the exact test too.
//   - A surviving candidate is re-summed in word-line order from partial —
//     the same rounded additions as the unpruned search — and kept on a
//     strict <. Inner lanes write their level lvl[k] = max(lvl[k-1], LWL) in
//     that same pass, so nothing is saved or restored; the last lane writes
//     nothing.
func (s *optimalSearch) pickOptimal(cands [][]int, choice []int, res *Result) {
	chargeNominal(cands, res)
	s.cands, s.choice, s.best = cands, choice, math.Inf(1)
	for ci, bi := range cands[0] {
		b := s.lanes[0].Blocks[bi]
		if b.PgmSum >= s.best {
			continue
		}
		s.cur[0] = ci
		if len(cands) == 1 { // lane 0 is also the last lane
			s.best = b.PgmSum
			copy(choice, s.cur)
			continue
		}
		s.lvl[0] = b.LWL
		s.walk(1, b.PgmSum)
	}
}

// walk extends the combination chosen on lanes 0..k-1, whose level is
// lvl[k-1] and latency partial, by every candidate of lane k.
func (s *optimalSearch) walk(k int, partial float64) {
	prev := s.lvl[k-1]
	last := k == len(s.cands)-1
	limit := (s.best-partial)*(1+screenSlack) + s.best*screenSlack
	for ci, bi := range s.cands[k] {
		lwl := s.lanes[k].Blocks[bi].LWL
		prev := prev[:len(lwl)]
		if screenReaches(lwl, prev, limit) {
			continue
		}
		sum := partial
		if last {
			for wl, v := range lwl {
				sum += increment(v, prev[wl])
			}
		} else {
			next := s.lvl[k][:len(lwl)]
			for wl, v := range lwl {
				m := max(v, prev[wl])
				sum += m - prev[wl]
				next[wl] = m
			}
		}
		if sum >= s.best {
			continue
		}
		s.cur[k] = ci
		if last {
			s.best = sum
			copy(s.choice, s.cur)
		} else {
			s.walk(k+1, sum)
		}
		limit = (s.best-partial)*(1+screenSlack) + s.best*screenSlack
	}
}

// increment is how far v raises a word-line whose running max is m: v − m if
// v > m, else +0 (adding +0 leaves a positive sum unchanged). It clears the
// difference's bits when its sign bit is set instead of branching, since
// which blocks are slower on a word-line is unpredictable.
func increment(v, m float64) float64 {
	b := math.Float64bits(v - m)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// screenReaches reports whether the increments of lwl over prev sum to at
// least limit. It keeps four independent accumulators and compares their
// total every 16 word-lines, so most candidates stop early.
func screenReaches(lwl, prev []float64, limit float64) bool {
	prev = prev[:len(lwl)]
	var a0, a1, a2, a3 float64
	wl := 0
	for ; wl+16 <= len(lwl); wl += 16 {
		for j := wl; j < wl+16; j += 4 {
			a0 += increment(lwl[j], prev[j])
			a1 += increment(lwl[j+1], prev[j+1])
			a2 += increment(lwl[j+2], prev[j+2])
			a3 += increment(lwl[j+3], prev[j+3])
		}
		if (a0+a1)+(a2+a3) >= limit {
			return true
		}
	}
	for ; wl < len(lwl); wl++ {
		a0 += increment(lwl[wl], prev[wl])
	}
	return (a0+a1)+(a2+a3) >= limit
}

// RankKind selects which rank vector a rank-based assembler compares.
type RankKind int

// The rank granularities of §IV-A5..7.
const (
	LWLRank RankKind = iota // all logical word-lines ranked 0..LWLs-1
	PWLRank                 // per string, layers ranked 0..Layers-1
	STRRank                 // per layer, strings ranked 0..Strings-1
)

func (k RankKind) String() string {
	switch k {
	case LWLRank:
		return "LWL-RANK"
	case PWLRank:
		return "PWL-RANK"
	case STRRank:
		return "STR-RANK"
	}
	return fmt.Sprintf("RankKind(%d)", int(k))
}

// Ranked is the LWL-/PWL-/STR-rank assembly: per window it chooses the
// combination with the minimal total pairwise rank distance (Equation 1).
type Ranked struct {
	Kind   RankKind
	Window int
}

// Name implements Assembler.
func (r Ranked) Name() string { return fmt.Sprintf("%s (%d)", r.Kind, r.Window) }

// Assemble implements Assembler. An unknown Kind is an error.
func (r Ranked) Assemble(lanes []Lane) (Result, error) {
	var rankOf func(*profile.BlockProfile) []int
	switch r.Kind {
	case LWLRank:
		rankOf = (*profile.BlockProfile).LWLRanks
	case PWLRank:
		rankOf = (*profile.BlockProfile).PWLRanks
	case STRRank:
		rankOf = (*profile.BlockProfile).STRRanks
	default:
		return Result{}, fmt.Errorf("assembly: unknown rank kind %d", int(r.Kind))
	}
	return assembleWindowed(lanes, r.Window, func() picker {
		ranks := perBlock(lanes, rankOf)
		return newPairSearch(lanes, func(l1, i1, l2, i2 int) int {
			return profile.RankDistance(ranks[l1][i1], ranks[l2][i2])
		}).pairwisePicker
	})
}

// STRMedian is the STR-median assembly (§IV-A8): 1-bit string ranks compared
// with XOR + popcount.
type STRMedian struct {
	Window int
}

// Name implements Assembler.
func (s STRMedian) Name() string { return fmt.Sprintf("STR-MED (%d)", s.Window) }

// Assemble implements Assembler.
func (s STRMedian) Assemble(lanes []Lane) (Result, error) {
	return assembleWindowed(lanes, s.Window, func() picker {
		eigens := perBlock(lanes, profile.EigenFromProfile)
		return newPairSearch(lanes, func(l1, i1, l2, i2 int) int {
			return eigens[l1][i1].Distance(eigens[l2][i2])
		}).pairwisePicker
	})
}

// perBlock derives f of every block of every lane, indexed [lane][block].
// Every block of a multi-lane assembly is eventually a chosen candidate whose
// distances were taken, so deriving all of them up front does no extra work.
func perBlock[T any](lanes []Lane, f func(*profile.BlockProfile) T) [][]T {
	out := make([][]T, len(lanes))
	for l, lane := range lanes {
		out[l] = make([]T, len(lane.Blocks))
		for i, b := range lane.Blocks {
			out[l][i] = f(b)
		}
	}
	return out
}

// pairSearch is the per-call state of the pairwise-distance window search.
type pairSearch struct {
	n    int // blocks per lane
	dist func(l1, i1, l2, i2 int) int
	// table caches the distance between block i1 of lane l1 and block i2 of
	// lane l2 (l1 < l2) at [((l2·(l2−1)/2 + l1)·n + i1)·n + i2]; −1 marks
	// a pair not computed yet. It lives for one Assemble call: consecutive
	// windows share most of their candidates, so each pair is computed once.
	table  []int32
	cands  [][]int
	choice []int
	cur    []int   // candidate positions of the combination being extended
	rows   [][]int // rows[k][l1]: table offset of lane l1's chosen block against lane k
	best   int
}

func newPairSearch(lanes []Lane, dist func(l1, i1, l2, i2 int) int) *pairSearch {
	nl, n := len(lanes), len(lanes[0].Blocks)
	s := &pairSearch{n: n, dist: dist, table: make([]int32, nl*(nl-1)/2*n*n),
		cur: make([]int, nl), rows: make([][]int, nl)}
	for i := range s.table {
		s.table[i] = -1
	}
	for k := range s.rows {
		s.rows[k] = make([]int, k)
	}
	return s
}

// pairwisePicker picks the window combination of minimal total pairwise
// distance and returns exactly what an exhaustive enumeration would:
// distances are non-negative integers summed exactly, so a partial total at
// or above the best prunes its subtree without changing the result; lanes
// and candidates are enumerated in order and the best is replaced only on a
// strict <, so of equal totals the lexicographically first combination wins.
// The table only avoids recomputing a pair; chargeNominal still charges
// every combination the paper's per-pair checks.
func (s *pairSearch) pairwisePicker(cands [][]int, choice []int, res *Result) {
	chargeNominal(cands, res)
	s.cands, s.choice, s.best = cands, choice, math.MaxInt
	s.walk(0, 0)
}

// walk extends the combination chosen on lanes 0..k-1, whose total distance
// is partial, by every candidate of lane k.
func (s *pairSearch) walk(k, partial int) {
	if k == len(s.cands) {
		if partial < s.best {
			s.best = partial
			copy(s.choice, s.cur)
		}
		return
	}
	rows := s.rows[k]
	for l1 := range rows {
		rows[l1] = (k*(k-1)/2+l1)*s.n*s.n + s.cands[l1][s.cur[l1]]*s.n
	}
	for ci, bi := range s.cands[k] {
		d := partial
		for l1, row := range rows {
			t := s.table[row+bi]
			if t < 0 {
				t = int32(s.dist(l1, s.cands[l1][s.cur[l1]], k, bi))
				s.table[row+bi] = t
			}
			d += int(t)
		}
		if d >= s.best {
			continue
		}
		s.cur[k] = ci
		s.walk(k+1, d)
	}
}

// Metrics summarizes the extra latency of an organized set of superblocks.
type Metrics struct {
	ExtraPgm []float64 // per superblock, µs
	ExtraErs []float64
	MeanPgm  float64
	MeanErs  float64
}

// Evaluate measures the extra program and erase latency of each assembled
// superblock against the given lanes (which may be a re-measurement of the
// same blocks, so that strategies are scored on fresh observations rather
// than the data they trained on).
func Evaluate(lanes []Lane, superblocks [][]int) (Metrics, error) {
	if err := checkLanes(lanes); err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		ExtraPgm: make([]float64, len(superblocks)),
		ExtraErs: make([]float64, len(superblocks)),
	}
	members := make([]*profile.BlockProfile, len(lanes))
	for k, sb := range superblocks {
		if len(sb) != len(lanes) {
			return Metrics{}, fmt.Errorf("assembly: superblock %d has %d members for %d lanes", k, len(sb), len(lanes))
		}
		for l, bi := range sb {
			if bi < 0 || bi >= len(lanes[l].Blocks) {
				return Metrics{}, fmt.Errorf("assembly: superblock %d member %d out of range", k, bi)
			}
			members[l] = lanes[l].Blocks[bi]
		}
		m.ExtraPgm[k] = profile.ExtraProgram(members)
		m.ExtraErs[k] = profile.ExtraErase(members)
		m.MeanPgm += m.ExtraPgm[k]
		m.MeanErs += m.ExtraErs[k]
	}
	if len(superblocks) > 0 {
		m.MeanPgm /= float64(len(superblocks))
		m.MeanErs /= float64(len(superblocks))
	}
	return m, nil
}

// CheckPartition verifies that the superblocks use every block of every lane
// exactly once. It is the core correctness invariant of any assembler.
func CheckPartition(lanes []Lane, superblocks [][]int) error {
	if err := checkLanes(lanes); err != nil {
		return err
	}
	n := len(lanes[0].Blocks)
	if len(superblocks) != n {
		return fmt.Errorf("assembly: %d superblocks for %d blocks per lane", len(superblocks), n)
	}
	for l := range lanes {
		seen := make([]bool, n)
		for k, sb := range superblocks {
			if len(sb) != len(lanes) {
				return fmt.Errorf("assembly: superblock %d has %d members", k, len(sb))
			}
			bi := sb[l]
			if bi < 0 || bi >= n {
				return fmt.Errorf("assembly: superblock %d lane %d index %d out of range", k, l, bi)
			}
			if seen[bi] {
				return fmt.Errorf("assembly: lane %d block %d used twice", l, bi)
			}
			seen[bi] = true
		}
	}
	return nil
}
