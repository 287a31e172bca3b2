package experiments

import (
	"reflect"
	"strings"
	"testing"

	"superfast/internal/assembly"
	"superfast/internal/core"
	"superfast/internal/telemetry"
)

func TestConfigValidate(t *testing.T) {
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero lanes per group", func(c *Config) { c.LanesPerGroup = 0 }},
		{"too many blocks", func(c *Config) { c.BlocksPerLane = c.Geometry.BlocksPerPlane + 1 }},
		{"zero window", func(c *Config) { c.Window = 0 }},
		{"no pe steps", func(c *Config) { c.PESteps = nil }},
		{"zero bins", func(c *Config) { c.HistBins = 0 }},
		{"geometry mismatch", func(c *Config) { c.PV.Layers++ }},
	}
	for _, tc := range cases {
		c := QuickConfig()
		tc.mutate(&c)
		if c.Validate() == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", QuickConfig()); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestIDsRegistered(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table5", "fig5", "fig6", "fig12",
		"fig13", "fig14", "fig15", "overhead-compute", "overhead-space",
		"ftl-host", "read-hints", "sim-throughput", "table34", "retention", "raid-overhead", "ncq", "gc-policy", "temperature", "load-sweep", "dftl",
		"ablation-quant", "ablation-erscorr", "ablation-remeasure", "ablation-window", "ablation-global"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.BlocksPerLane = 32 // keep the full suite fast
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.ID != id {
				t.Errorf("result id = %q", res.ID)
			}
			out := res.String()
			if len(out) < 40 {
				t.Errorf("%s: suspiciously short output:\n%s", id, out)
			}
		})
	}
}

func TestTable5Ordering(t *testing.T) {
	cfg := QuickConfig()
	out, err := SweepStrategies(cfg, table5Strategies(cfg))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StrategyOutcome{}
	for _, o := range out {
		byName[o.Name] = o
	}
	random := byName["RANDOM"]
	// The load-bearing shape of Table V: every scheme beats random on both
	// metrics, and the similarity schemes beat sequential.
	for _, name := range []string{"SEQUENTIAL", "OPTIMAL (4)", "QSTR-MED (4)", "STR-MED (4)"} {
		o, ok := byName[name]
		if !ok {
			t.Fatalf("missing %q in %v", name, out)
		}
		if o.MeanPgm >= random.MeanPgm {
			t.Errorf("%s extra PGM %v should beat random %v", name, o.MeanPgm, random.MeanPgm)
		}
		if o.MeanErs >= random.MeanErs {
			t.Errorf("%s extra ERS %v should beat random %v", name, o.MeanErs, random.MeanErs)
		}
	}
	seq := byName["SEQUENTIAL"]
	for _, name := range []string{"OPTIMAL (4)", "QSTR-MED (4)", "STR-MED (4)"} {
		if byName[name].MeanPgm >= seq.MeanPgm {
			t.Errorf("%s should beat sequential on extra PGM", name)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	cfg := QuickConfig()
	cfg.BlocksPerLane = 16
	strategies := []assembly.Assembler{baseline(cfg), core.BatchAssembler{K: 4}}
	a, err := SweepStrategies(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepStrategies(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].MeanPgm != b[i].MeanPgm || a[i].MeanErs != b[i].MeanErs {
			t.Fatalf("sweep not deterministic for %s", a[i].Name)
		}
	}
}

func TestOverheadComputeReduction(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("overhead-compute", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "QSTR-MED reduces similarity checks by 9") {
		t.Fatalf("expected ≥90%% reduction, got: %s", res.Text)
	}
}

func TestOverheadSpacePaperNumbers(t *testing.T) {
	res, err := Run("overhead-space", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "52") {
		t.Fatalf("paper's 52 bytes/block missing:\n%s", out)
	}
	if !strings.Contains(out, "6.50 MB") {
		t.Fatalf("paper's 6.5 MB for a 1 TB SSD missing:\n%s", out)
	}
}

func TestFig15SeriesShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.BlocksPerLane = 16
	cfg.PESteps = []int{0, 1000, 3000}
	res, err := Run("fig15", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series blocks, got %d", len(res.Series))
	}
	for _, sb := range res.Series {
		for _, s := range sb.Series {
			if len(s.X) != 3 {
				t.Fatalf("series %s has %d points, want 3", s.Name, len(s.X))
			}
		}
	}
}

func TestFig13HistogramsShiftLeft(t *testing.T) {
	cfg := QuickConfig()
	res, err := Run("fig13", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "RANDOM") || !strings.Contains(res.Text, "QSTR-MED") {
		t.Fatalf("histogram output incomplete:\n%s", res.Text)
	}
}

func TestAblationErsCorrKillsEraseGains(t *testing.T) {
	cfg := QuickConfig()
	decoupled := cfg
	decoupled.PV.ErsCorrCoeff = 0
	decoupled.PV.ErsSpikeSlope = 0
	decoupled.PV.ErsSpikeMax = 0
	strategies := []assembly.Assembler{baseline(cfg), core.BatchAssembler{K: 4}}
	with, err := SweepStrategies(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	without, err := SweepStrategies(decoupled, strategies)
	if err != nil {
		t.Fatal(err)
	}
	gainWith := with[0].MeanErs - with[1].MeanErs
	gainWithout := without[0].MeanErs - without[1].MeanErs
	if gainWith <= 0 {
		t.Fatalf("correlated model should show erase gains, got %v", gainWith)
	}
	if gainWithout > gainWith/2 {
		t.Fatalf("decoupled erase gains (%v) should collapse versus correlated (%v)", gainWithout, gainWith)
	}
}

func TestParallelSweepDeterministic(t *testing.T) {
	cfg := QuickConfig()
	cfg.BlocksPerLane = 24
	cfg.Parallel = 4
	strategies := []assembly.Assembler{baseline(cfg), core.BatchAssembler{K: 4}}
	a, err := SweepStrategies(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepStrategies(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].MeanPgm != b[i].MeanPgm || a[i].MeanErs != b[i].MeanErs {
			t.Fatalf("parallel sweep not deterministic for %s", a[i].Name)
		}
	}
	// Equivalent to serial: the parallel tasks replay the serial jitter
	// stream via nonce offsets, so the means match exactly.
	cfg.Parallel = 0
	serial, err := SweepStrategies(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].MeanPgm != serial[i].MeanPgm || a[i].MeanErs != serial[i].MeanErs {
			t.Fatalf("%s: parallel mean %v/%v differs from serial %v/%v",
				a[i].Name, a[i].MeanPgm, a[i].MeanErs, serial[i].MeanPgm, serial[i].MeanErs)
		}
	}
}

func TestSweepSerialParallelIdentical(t *testing.T) {
	// Regression: parallel tasks used to seed their jitter streams from the
	// P/E cycle *value* (len(PESteps)*gi + pe), so any change to the step
	// values changed the stream and parallel results diverged from serial.
	// Each task now fast-forwards the one serial stream by its dense task
	// index, making serial and parallel outcomes byte-identical.
	cfg := QuickConfig()
	cfg.BlocksPerLane = 16
	cfg.PESteps = []int{0, 200, 400}
	strategies := []assembly.Assembler{baseline(cfg), core.BatchAssembler{K: 4}}
	serialCfg := cfg
	serialCfg.Parallel = 0
	serial, err := SweepStrategies(serialCfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := cfg
	parCfg.Parallel = 4
	par, err := SweepStrategies(parCfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel sweep differs from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

func TestSweepParallelRace(t *testing.T) {
	// Data-race canary for the parallel sweep path; meaningful under -race.
	cfg := QuickConfig()
	cfg.BlocksPerLane = 16
	cfg.Parallel = 4
	if _, err := SweepStrategies(cfg, []assembly.Assembler{core.BatchAssembler{K: 4}}); err != nil {
		t.Fatal(err)
	}
}

func TestEveryExperimentHasDescription(t *testing.T) {
	for _, id := range IDs() {
		if Describe(id) == "" {
			t.Errorf("experiment %q has no description", id)
		}
	}
}

func TestSweepMetricsParallelMatchesSerial(t *testing.T) {
	// The sweep merges task outcomes in serial task order even when the
	// tasks themselves ran concurrently, so every metric — including the
	// digest's float sum, which depends on observation order — must match
	// the serial run exactly.
	run := func(parallel int) []telemetry.Value {
		cfg := QuickConfig()
		cfg.BlocksPerLane = 16
		cfg.Parallel = parallel
		m := telemetry.New()
		cfg.Metrics = m
		if _, err := SweepStrategies(cfg, []assembly.Assembler{baseline(cfg), core.BatchAssembler{K: 4}}); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	serial := run(0)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep metrics differ:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	byName := map[string]telemetry.Value{}
	for _, v := range serial {
		byName[v.Name] = v
	}
	if byName["sweep.tasks"].Value == 0 || byName["sweep.superblocks"].Value == 0 {
		t.Fatalf("sweep counters empty: %+v", serial)
	}
	if byName["sweep.extra_pgm_us.n"].Value == 0 {
		t.Fatal("extra-PGM digest saw no observations")
	}
}
