package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"time"

	"superfast/internal/assembly"
	"superfast/internal/chamber"
	"superfast/internal/core"
	"superfast/internal/experiments"
	"superfast/internal/flash"
	"superfast/internal/pv"
	"superfast/internal/stats"
)

// paper-repro: the reprocheck medium-scale sweep — nine assemblers over a
// 24-chip geometry, 200 blocks per lane, 2 lane groups, P/E {0, 1500, 3000},
// two tasks in parallel. assembly does almost all the work; no FTL, device
// or wire code runs.

// The chip population is the model's default one — the population the
// paper's bands are calibrated on. The workload seed draws the RANDOM
// baseline's block grouping, the sweep's one seeded input; seed 1 is exactly
// cmd/reprocheck's medium scale.
func reproConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.BlocksPerLane = 200
	cfg.Groups = 2
	cfg.PESteps = []int{0, 1500, 3000}
	cfg.Parallel = 2
	return cfg
}

// reproStrategies are reprocheck's nine assemblers, in its order.
func reproStrategies(cfg experiments.Config, seed uint64) []assembly.Assembler {
	return []assembly.Assembler{
		assembly.Random{Seed: cfg.Seed + seed},
		assembly.Sequential{},
		assembly.ByErase{},
		assembly.ByPgmSum{},
		assembly.Optimal{Window: cfg.Window},
		assembly.Ranked{Kind: assembly.LWLRank, Window: cfg.Window},
		assembly.Ranked{Kind: assembly.STRRank, Window: cfg.Window},
		assembly.STRMedian{Window: cfg.MedWindow},
		core.BatchAssembler{K: cfg.MedWindow},
	}
}

// timedAssembler is a transparent timing decorator around an Assembler: it
// forwards every call unchanged and records the call's wall time and work.
type timedAssembler struct {
	inner assembly.Assembler
	log   *spanLog // nil = no spans

	mu         sync.Mutex
	callsUS    []float64
	total      time.Duration
	pairChecks int
	combos     int
}

func (t *timedAssembler) Name() string { return t.inner.Name() }

func (t *timedAssembler) Assemble(lanes []assembly.Lane) (assembly.Result, error) {
	t0 := time.Now()
	res, err := t.inner.Assemble(lanes)
	d := time.Since(t0)
	t.mu.Lock()
	t.callsUS = append(t.callsUS, float64(d.Nanoseconds())/1e3)
	t.total += d
	t.pairChecks += res.PairChecks
	t.combos += res.Combos
	if t.log != nil {
		t.log.add([]span{{ID: int64(len(t.callsUS) - 1), Layer: "assembly:" + t.inner.Name(),
			Start: t.log.since(t0), End: t.log.since(t0.Add(d))}})
	}
	t.mu.Unlock()
	return res, err
}

func decorate(ss []assembly.Assembler, log *spanLog) ([]assembly.Assembler, []*timedAssembler) {
	out := make([]assembly.Assembler, len(ss))
	timed := make([]*timedAssembler, len(ss))
	for i, s := range ss {
		timed[i] = &timedAssembler{inner: s, log: log}
		out[i] = timed[i]
	}
	return out, timed
}

// reproTasks lists the sweep's (P/E step × lane group) tasks.
func reproTasks(cfg experiments.Config) ([]int, []chamber.LaneGroup) {
	groups := chamber.GroupLanes(cfg.Geometry, cfg.LanesPerGroup)
	if cfg.Groups > 0 && cfg.Groups < len(groups) {
		groups = groups[:cfg.Groups]
	}
	return cfg.PESteps, groups
}

// measureAll characterizes every task's lane group on a fresh testbed, as
// the sweep does before assembling. As set-up it fills the model's lazily
// built latency-kernel tables; as a rung it times the chamber layer.
func measureAll(cfg experiments.Config) error {
	p := cfg.PV
	p.Seed = cfg.Seed
	model := pv.New(p)
	steps, groups := reproTasks(cfg)
	blocks := chamber.BlockRange(0, cfg.BlocksPerLane)
	for _, pe := range steps {
		for _, grp := range groups {
			arr, err := flash.NewArray(cfg.Geometry, model, flash.DefaultECC())
			if err != nil {
				return err
			}
			if _, err := chamber.New(arr).MeasureGroup(grp, blocks, pe, cfg.FastMeasure); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepSuperblocks is the superblocks one sweep assembles, over all strategies.
func sweepSuperblocks(out []experiments.StrategyOutcome) int {
	n := 0
	for _, o := range out {
		n += o.Superblocks
	}
	return n
}

func runPaperRepro(opt options) (*outcome, error) {
	oc := newOutcome()
	cfg := reproConfig()
	// The first set-up also builds the model's latency-kernel tables, which
	// live as long as the process; the median is a set-up on built tables.
	// The traced run reports the table build itself as pv.kernel_build_s.
	_, setupS, err := timeSetups(3, func() (struct{}, error) { return struct{}{}, measureAll(cfg) }, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	oc.set("setup_s", setupS)

	// The reference sweep runs undecorated; every later sweep runs through
	// the timing decorator and must reproduce it exactly.
	start := time.Now()
	cpu0 := cpuTime()
	ref, err := experiments.SweepStrategies(cfg, reproStrategies(cfg, opt.seed))
	if err != nil {
		return nil, err
	}
	rates := []float64{float64(sweepSuperblocks(ref)) / time.Since(start).Seconds()}
	var callsUS []float64
	sweeps := 1
	for time.Since(start) < opt.duration || sweeps < 2 {
		ss, timed := decorate(reproStrategies(cfg, opt.seed), nil)
		t := time.Now()
		out, err := experiments.SweepStrategies(cfg, ss)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(sweepSuperblocks(out))/time.Since(t).Seconds())
		sweeps++
		for _, ta := range timed {
			callsUS = append(callsUS, ta.callsUS...)
		}
		if !reflect.DeepEqual(out, ref) {
			oc.fail("sweep %d through the timing decorator differs from the reference sweep", sweeps)
			oc.failed++
		}
	}
	cpu := cpuTime() - cpu0
	oc.attempted += int64(sweeps)
	checkRepro(oc, cfg, opt.seed, ref)
	oc.set("cpu_us_per_op", perOpUS(cpu, int64(sweeps*sweepSuperblocks(ref))))
	oc.set("ops_per_s", median(rates))
	oc.set("p50_us", median(callsUS))
	return oc, nil
}

func tracePaperRepro(opt options) (*outcome, error) {
	oc := newOutcome()
	cfg := reproConfig()
	t := time.Now()
	if err := measureAll(cfg); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	coldS := time.Since(t).Seconds()
	// Span overhead: the configured (parallel) sweep with and without the
	// decorator recording spans.
	t = time.Now()
	ref, err := experiments.SweepStrategies(cfg, reproStrategies(cfg, opt.seed))
	if err != nil {
		return nil, err
	}
	plain := time.Since(t).Seconds()
	log := newSpanLog()
	ss, _ := decorate(reproStrategies(cfg, opt.seed), log)
	t = time.Now()
	spanned, err := experiments.SweepStrategies(cfg, ss)
	if err != nil {
		return nil, err
	}
	oc.set("bench.span_overhead", overhead(1/time.Since(t).Seconds(), 1/plain))

	// Attribution runs serially, so the decorator's times partition the
	// sweep's wall time.
	serial := cfg
	serial.Parallel = 0
	ss, timed := decorate(reproStrategies(serial, opt.seed), log)
	t = time.Now()
	out, err := experiments.SweepStrategies(serial, ss)
	if err != nil {
		return nil, err
	}
	sweepS := time.Since(t).Seconds()
	t = time.Now()
	if err := measureAll(cfg); err != nil {
		return nil, err
	}
	measureS := time.Since(t).Seconds()

	oc.attempted = 3
	for i, o := range [][]experiments.StrategyOutcome{spanned, out} {
		if !reflect.DeepEqual(o, ref) {
			oc.fail("decorated sweep %d differs from the undecorated reference", i+1)
			oc.failed++
		}
	}
	checkRepro(oc, cfg, opt.seed, ref)

	assembleS := 0.0
	for i, ta := range timed {
		secs := ta.total.Seconds()
		assembleS += secs
		if i == len(timed)-1 { // QSTR-MED
			oc.set("core.qstr_med_s", secs)
			oc.set("core.pair_checks", float64(ta.pairChecks))
			continue
		}
		stem := assemblyStrategies[i].stem
		if ta.Name() != assemblyStrategies[i].name {
			return nil, fmt.Errorf("strategy %d is %q, want %q", i, ta.Name(), assemblyStrategies[i].name)
		}
		oc.set("assembly."+stem+"_s", secs)
		oc.set("assembly."+stem+"_pair_checks", float64(ta.pairChecks))
		oc.set("assembly."+stem+"_combos", float64(ta.combos))
	}
	oc.set("chamber.measure_s", measureS)
	oc.set("pv.kernel_build_s", coldS-measureS)
	oc.set("experiments.sweep_s", sweepS)
	oc.set("experiments.other_s", sweepS-assembleS-measureS)
	oc.set("experiments.qstr_med_extra_pgm_us", outcomeByName(ref, qstrName(cfg)).MeanPgm)
	zeroLayers(oc)
	return oc, log.write(opt.spans)
}

func qstrName(cfg experiments.Config) string { return fmt.Sprintf("QSTR-MED (%d)", cfg.MedWindow) }

func outcomeByName(out []experiments.StrategyOutcome, name string) experiments.StrategyOutcome {
	for _, o := range out {
		if o.Name == name {
			return o
		}
	}
	return experiments.StrategyOutcome{}
}

// reproPinned holds the digest of the sweep's outcomes for the default seed
// and the held-out seed.
var reproPinned = map[uint64]uint64{
	1:    0xe26b049fb46e64f9,
	7919: 0x60ddff22d4354f38,
}

// outcomeDigest hashes every strategy's means and work counts.
func outcomeDigest(out []experiments.StrategyOutcome) uint64 {
	h := fnv.New64a()
	for _, o := range out {
		h.Write([]byte(o.Name))
		for _, v := range []uint64{math.Float64bits(o.MeanPgm), math.Float64bits(o.MeanErs),
			uint64(o.PairChecks), uint64(o.Combos), uint64(o.Superblocks)} {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	return h.Sum64()
}

// checkRepro re-evaluates cmd/reprocheck's 17 certification checks (medium
// scale bands) on a sweep's outcomes; each failing check fails the run.
// For a seed with a pinned digest the outcomes must also match it exactly.
func checkRepro(oc *outcome, cfg experiments.Config, seed uint64, out []experiments.StrategyOutcome) {
	got := outcomeDigest(out)
	fmt.Printf("paper-repro: sweep-outcome digest %#016x (seed %d)\n", got, seed)
	if want, ok := reproPinned[seed]; ok {
		oc.attempted++
		if got != want {
			oc.failed++
			oc.fail("sweep-outcome digest %#016x, pinned %#016x", got, want)
		}
	}
	for _, c := range reproChecks(cfg, out) {
		oc.attempted++
		if !c.pass {
			oc.failed++
			oc.fail("reprocheck %s: got %s", c.name, c.got)
		}
	}
}

type reproCheck struct {
	name string
	got  string
	pass bool
}

func reproChecks(cfg experiments.Config, out []experiments.StrategyOutcome) []reproCheck {
	by := func(name string) experiments.StrategyOutcome { return outcomeByName(out, name) }
	rnd := by("RANDOM")
	imp := func(name string) float64 { return stats.Improvement(rnd.MeanPgm, by(name).MeanPgm) }
	impErs := func(name string) float64 { return stats.Improvement(rnd.MeanErs, by(name).MeanErs) }
	band := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
	opt := fmt.Sprintf("OPTIMAL (%d)", cfg.Window)
	strRank := fmt.Sprintf("STR-RANK (%d)", cfg.Window)
	lwlRank := fmt.Sprintf("LWL-RANK (%d)", cfg.Window)
	strMed := fmt.Sprintf("STR-MED (%d)", cfg.MedWindow)
	qstr := qstrName(cfg)

	var cs []reproCheck
	add := func(name, got string, pass bool) { cs = append(cs, reproCheck{name, got, pass}) }
	add("random extra PGM latency", stats.FmtUS(rnd.MeanPgm)+" µs", band(rnd.MeanPgm, 13084*0.85, 13084*1.15))
	add("random extra ERS latency", stats.FmtUS(rnd.MeanErs)+" µs", band(rnd.MeanErs, 41.71*0.8, 41.71*1.2))
	for _, c := range []struct {
		name, key string
		paper     float64
	}{
		{"SEQUENTIAL improvement", "SEQUENTIAL", 0.1045},
		{"ERS-LTN improvement", "ERS-LTN", 0.0855},
		{"PGM-LTN improvement", "PGM-LTN", 0.1037},
		{"OPTIMAL(8) improvement", opt, 0.1949},
		{"LWL-RANK(8) improvement", lwlRank, 0.1411},
		{"STR-RANK(8) improvement", strRank, 0.1827},
		{"STR-MED(4) improvement", strMed, 0.1674},
		{"QSTR-MED(4) improvement", qstr, 0.1661},
	} {
		v := imp(c.key)
		add(c.name, stats.FmtPct(v), band(v, c.paper-0.04, c.paper+0.04))
	}
	add("OPTIMAL ≥ STR-RANK", "", imp(opt) >= imp(strRank))
	add("STR-RANK ≥ STR-MED", "", imp(strRank) >= imp(strMed))
	add("STR-MED ≈ QSTR-MED (≤3 pp)", "", imp(strMed)-imp(qstr) <= 0.03 && imp(strMed)-imp(qstr) >= -0.01)
	add("QSTR-MED > SEQUENTIAL", "", imp(qstr) > imp("SEQUENTIAL"))
	add("erase gains exceed program gains (QSTR-MED)", "", impErs(qstr) > imp(qstr))
	reduction := stats.Improvement(float64(by(strMed).PairChecks), float64(by(qstr).PairChecks))
	add("QSTR-MED check reduction", stats.FmtPct(reduction), band(reduction, 0.985, 0.995))
	perBlock := core.MemoryFootprintBytes(flash.PaperGeometry()) / flash.PaperGeometry().TotalBlocks()
	add("metadata per block", fmt.Sprintf("%d B", perBlock), perBlock == 52)
	return cs
}
