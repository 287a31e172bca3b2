package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"superfast/internal/assembly"
	"superfast/internal/core"
	"superfast/internal/experiments"
	"superfast/internal/profile"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{10000, 0.999, true}, {9999, 0.999, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	few := make([]float64, 999)
	if got := tailOrZero(few, 0.99); got != 0 {
		t.Errorf("tailOrZero with 999 samples at p99 = %v, want 0 (unsupported)", got)
	}
}

func TestRungArithmetic(t *testing.T) {
	if got := perOpUS(2*time.Second, 1000); got != 2000 {
		t.Errorf("perOpUS = %v, want 2000", got)
	}
	if got := perOpUS(time.Second, 0); got != 0 {
		t.Errorf("perOpUS with no ops = %v, want 0", got)
	}
	// proxy.self = client − volume; volume.self = volume − legs × server.
	if got := selfTime(36, 24, 1); got != 12 {
		t.Errorf("selfTime(36, 24, 1) = %v, want 12", got)
	}
	if got := selfTime(30, 20, 1.3); math.Abs(got-4) > 1e-9 {
		t.Errorf("selfTime(30, 20, 1.3) = %v, want 4", got)
	}
	if got := overhead(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overhead(90, 100) = %v, want 0.1", got)
	}
	if got := overhead(1, 0); got != 0 {
		t.Errorf("overhead with zero base = %v, want 0", got)
	}
}

func TestPassRateIsMedianOfBuckets(t *testing.T) {
	// 1000 ops/s for two buckets, then a stall: the median ignores it.
	var ends []time.Duration
	for i := 0; i < 1000; i++ {
		ends = append(ends, time.Duration(i)*time.Millisecond)
	}
	ends = append(ends, 1400*time.Millisecond)
	r := passResult{ops: int64(len(ends)), elapsed: 1500 * time.Millisecond, ends: ends}
	if got := r.rate(); math.Abs(got-1000) > 1 {
		t.Errorf("rate = %v, want ≈1000", got)
	}
}

func testLanes(t *testing.T) []assembly.Lane {
	t.Helper()
	lanes := make([]assembly.Lane, 4)
	for l := range lanes {
		for b := 0; b < 16; b++ {
			lwl := make([]float64, 8)
			for i := range lwl {
				lwl[i] = 1500 + float64((l*31+b*17+i*7)%97)
			}
			lanes[l].Blocks = append(lanes[l].Blocks, profile.NewBlockProfile(l, b, 2, 4, lwl, 3000+float64(b), 0))
		}
	}
	return lanes
}

func TestTimedAssemblerIsTransparent(t *testing.T) {
	lanes := testLanes(t)
	for _, a := range []assembly.Assembler{
		assembly.Sequential{}, assembly.STRMedian{Window: 4}, core.BatchAssembler{K: 4},
	} {
		want, werr := a.Assemble(lanes)
		log := newSpanLog()
		ta := &timedAssembler{inner: a, log: log}
		got, gerr := ta.Assemble(lanes)
		if !reflect.DeepEqual(got, want) || !errors.Is(gerr, werr) {
			t.Fatalf("%s: decorated result differs", a.Name())
		}
		if ta.Name() != a.Name() || len(ta.callsUS) != 1 || ta.pairChecks != want.PairChecks || ta.combos != want.Combos {
			t.Fatalf("%s: decorator recorded %d calls, %d checks, %d combos", a.Name(), len(ta.callsUS), ta.pairChecks, ta.combos)
		}
		if len(log.durationsUS("assembly:"+a.Name())) != 1 {
			t.Fatalf("%s: want one span", a.Name())
		}
	}
	// A whole sweep through the decorator equals the plain sweep.
	cfg := experiments.QuickConfig()
	cfg.BlocksPerLane = 16
	plain, err := experiments.SweepStrategies(cfg, reproStrategies(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := decorate(reproStrategies(cfg, 1), nil)
	timed, err := experiments.SweepStrategies(cfg, ss)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, timed) {
		t.Fatal("sweep through the timing decorator differs from the plain sweep")
	}
}

func TestStampVerifierFlagsCorruption(t *testing.T) {
	data := stamp(clusterPayload, 42, 7)
	if !stampOK(data, clusterPayload, 42, 7) {
		t.Fatal("intact payload rejected")
	}
	for _, i := range []int{0, 9, 100, clusterPayload - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x20
		if stampOK(bad, clusterPayload, 42, 7) {
			t.Errorf("payload corrupted at byte %d accepted", i)
		}
	}
	if stampOK(data, clusterPayload, 42, 6) || stampOK(data, clusterPayload, 43, 7) {
		t.Error("stale version or wrong page accepted")
	}
	if stampOK(data[:100], clusterPayload, 42, 7) {
		t.Error("truncated payload accepted")
	}
	if !stampOK(nil, clusterPayload, 42, 0) || stampOK(data, clusterPayload, 42, 0) {
		t.Error("fill version must match exactly the empty page")
	}
}

// memTarget is an in-memory page store that can corrupt what it returns.
type memTarget struct {
	pages   map[int64][]byte
	corrupt bool
}

func (m *memTarget) read(_ uint64, lpn int64) ([]byte, error) {
	d := append([]byte(nil), m.pages[lpn]...)
	if m.corrupt && len(d) > 0 {
		d[len(d)-1] ^= 1
	}
	return d, nil
}

func (m *memTarget) write(_ uint64, lpn int64, data []byte) error {
	m.pages[lpn] = append([]byte(nil), data...)
	return nil
}

func TestShadowVerifierFlagsCorruptedRead(t *testing.T) {
	l := newClusterLoad(3, 64*clusterWorkers)
	mem := &memTarget{pages: make(map[int64][]byte)}
	ts := []target{mem}
	if r := l.pass(ts, 0, 2000, nil, ""); r.failed != 0 || r.ops != 2000 {
		t.Fatalf("honest store: %d of %d ops failed", r.failed, r.ops)
	}
	mem.corrupt = true
	if r := l.pass(ts, 0, 500, nil, ""); r.failed == 0 {
		t.Fatal("corrupted reads passed verification")
	}
	// Below the volume the shadow forgets, and unknown pages are not judged.
	l.forget()
	mem.corrupt = false
	mem.pages = make(map[int64][]byte)
	if r := l.pass(ts, 0, 500, nil, ""); r.failed != 0 {
		t.Fatalf("forgotten pages judged: %d failures", r.failed)
	}
}

func TestFinishRequiresExactMetricSet(t *testing.T) {
	oc := newOutcome()
	oc.attempted = 1
	for _, d := range endToEnd {
		oc.set(d.name, 1)
	}
	if _, err := finish(oc, endToEnd); err != nil {
		t.Fatal(err)
	}
	oc.set("undeclared", 1)
	if _, err := finish(oc, endToEnd); err == nil {
		t.Fatal("undeclared metric accepted")
	}
	delete(oc.values, "undeclared")
	delete(oc.values, "p50_us")
	if _, err := finish(oc, endToEnd); err == nil {
		t.Fatal("missing metric accepted")
	}
	oc = newOutcome()
	oc.attempted = 1
	zeroLayers(oc)
	oc.fail("boom")
	res, err := finish(oc, perLayer)
	if err != nil || res.Correct {
		t.Fatalf("failed check must yield correct=false, got %v, %v", res.Correct, err)
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	fp := takeFingerprint("device-churn", 1, false)
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"ops_per_s": {Value: 2, Unit: "1/s"}}}
	if err := writeRecord(a, record{fp, res}); err != nil {
		t.Fatal(err)
	}
	fp.Seed = 2
	if err := writeRecord(b, record{fp, res}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compareFiles(&out, a, b); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("differing fingerprints compared: %v", err)
	}
	if err := compareFiles(&out, a, a); err != nil || !strings.Contains(out.String(), "ops_per_s") {
		t.Fatalf("equal fingerprints: %v, %q", err, out.String())
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, tables %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != (def{w.name, w.unit, w.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
