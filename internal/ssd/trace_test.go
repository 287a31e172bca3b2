package ssd

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"superfast/internal/telemetry"
)

// mixedTrace builds a deterministic stamped workload exercising writes,
// reads, and a trim, against a device warmed by FillSequential.
func mixedTrace(d *ConcurrentDevice, n int) []Request {
	base := d.Now() + 1000
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		arr := base + float64(i)*3
		switch {
		case i%5 == 4:
			reqs = append(reqs, Request{Kind: OpTrim, LPN: int64(40 + i), Arrival: arr})
		case i%3 == 0:
			reqs = append(reqs, Request{Kind: OpWrite, LPN: int64(i % 16), Data: []byte{byte(i), 0xA5}, Arrival: arr})
		default:
			reqs = append(reqs, Request{Kind: OpRead, LPN: int64(16 + i%24), Arrival: arr})
		}
	}
	return reqs
}

// tracedRun warms a device, attaches a fresh tracer after the fill, replays
// the same stamped workload at the given depth, and returns the rendered
// Chrome trace plus the device.
func tracedRun(t *testing.T, depth int) ([]byte, *telemetry.Trace, *ConcurrentDevice, []ChipStats) {
	t.Helper()
	d := concurrentDevice(t)
	if err := d.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	afterFill := d.ChipStats()
	tr := telemetry.NewTrace()
	d.SetTracer(tr)
	replayTickets(t, d, mixedTrace(d, 40), depth)
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), tr, d, afterFill
}

func TestTraceGolden(t *testing.T) {
	// Acceptance: the exported trace is byte-identical across runs AND
	// across worker counts, pinned by a golden file. Regenerate with
	// UPDATE_GOLDEN=1 go test ./internal/ssd -run TestTraceGolden.
	out1, _, _, _ := tracedRun(t, 1)
	out4, _, _, _ := tracedRun(t, 4)
	if !bytes.Equal(out1, out4) {
		t.Fatal("trace bytes differ between depth 1 and depth 4")
	}

	golden := filepath.Join("testdata", "trace.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out1, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(out1))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(out1, want) {
		t.Fatalf("trace drifted from golden (%d vs %d bytes); if intended, regenerate with UPDATE_GOLDEN=1", len(out1), len(want))
	}

	// The golden must be a valid Chrome trace: a JSON array whose entries
	// carry the fields Perfetto needs.
	var evs []map[string]any
	if err := json.Unmarshal(out1, &evs); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range evs {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("span without dur: %v", ev)
			}
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("trace lacks metadata/span/instant records: %v", phases)
	}
}

func TestTraceCoversPipeline(t *testing.T) {
	_, tr, d, _ := tracedRun(t, 1)
	evs := tr.Events()
	var host, ftlStage, flash, gc int
	for _, ev := range evs {
		switch ev.Cat {
		case "host":
			host++
			if ev.Ph != telemetry.PhaseSpan || ev.Dur < 0 {
				t.Fatalf("bad host span %+v", ev)
			}
		case "ftl":
			ftlStage++
		case "flash":
			flash++
			if name := ev.Name; name != "read" && name != "program" && name != "erase" {
				t.Fatalf("unknown flash op %q", name)
			}
			if ev.GC {
				gc++
			}
		}
	}
	if host != 40 {
		t.Fatalf("host spans = %d, want one per request", host)
	}
	if ftlStage == 0 || flash == 0 {
		t.Fatalf("pipeline stages missing: ftl=%d flash=%d", ftlStage, flash)
	}
	_ = d
}

func TestChipStatsMatchJournalAcrossDepths(t *testing.T) {
	// Every flash span in the trace is one chip op; the ChipStats deltas over
	// the traced window must sum to exactly the journalled work, at any
	// submission depth, and the per-chip schedules must agree across depths.
	type delta struct {
		ops  uint64
		busy float64
	}
	run := func(depth int) (map[int]delta, []telemetry.Event, []ChipStats) {
		_, tr, d, afterFill := tracedRun(t, depth)
		ds := map[int]delta{}
		final := d.ChipStats()
		for i, cs := range final {
			ds[cs.Chip] = delta{
				ops:  cs.Ops - afterFill[i].Ops,
				busy: cs.Busy - afterFill[i].Busy,
			}
		}
		return ds, tr.Events(), final
	}
	d1, evs1, cs1 := run(1)
	d4, _, cs4 := run(4)
	if !reflect.DeepEqual(cs1, cs4) {
		t.Fatalf("chip stats differ across depths:\n%+v\n%+v", cs1, cs4)
	}
	if !reflect.DeepEqual(d1, d4) {
		t.Fatalf("chip deltas differ across depths:\n%+v\n%+v", d1, d4)
	}
	journal := map[int]delta{}
	for _, ev := range evs1 {
		if ev.Cat != "flash" {
			continue
		}
		chip := ev.Track - telemetry.TrackChipBase
		dd := journal[chip]
		dd.ops++
		dd.busy += ev.Dur
		journal[chip] = dd
	}
	for chip, want := range journal {
		got := d1[chip]
		if got.ops != want.ops {
			t.Fatalf("chip %d ops = %d, trace journal has %d", chip, got.ops, want.ops)
		}
		if math.Abs(got.busy-want.busy) > 1e-9 {
			t.Fatalf("chip %d busy = %v, trace journal sums to %v", chip, got.busy, want.busy)
		}
	}
	for chip, got := range d1 {
		if _, ok := journal[chip]; !ok && got.ops != 0 {
			t.Fatalf("chip %d did %d untraced ops", chip, got.ops)
		}
	}
}

func TestDigestDrainSurvivesErrors(t *testing.T) {
	// A failed submission records nothing, but must still release its ticket:
	// later completions are recorded in the digest as usual.
	d := concurrentDevice(t)
	if err := d.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(Request{Kind: OpRead, LPN: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(Request{Kind: OpRead, LPN: -1}); err == nil {
		t.Fatal("out-of-range read should fail")
	}
	if _, err := d.Submit(Request{Kind: OpRead, LPN: 4}); err != nil {
		t.Fatal(err)
	}
	fill := uint64(d.FTL().Capacity())
	if got := d.LatencyDigest().N; got != fill+2 {
		t.Fatalf("digest n = %d, want %d (fill + 2 successful reads)", got, fill+2)
	}
}

func TestEmptyBatchAdvancesTicket(t *testing.T) {
	// An empty batch consumes its ticket: later submissions must not block
	// behind it, and it records nothing in the digest.
	d := concurrentDevice(t)
	if _, err := d.SubmitBatch(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(Request{Kind: OpWrite, LPN: 0, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if got := d.LatencyDigest().N; got != 1 {
		t.Fatalf("digest n = %d, want 1", got)
	}
}

func TestStatsLatenciesGatedByRetention(t *testing.T) {
	d := concurrentDevice(t)
	if _, err := d.Submit(Request{Kind: OpWrite, LPN: 0, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); len(s.Latencies) != 0 {
		t.Fatalf("retention off, but Stats kept %d latencies", len(s.Latencies))
	}
	r := concurrentDeviceCfg(t, func(cfg *Config) { cfg.RetainLatencies = true })
	if _, err := r.Submit(Request{Kind: OpWrite, LPN: 0, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); len(s.Latencies) != 1 {
		t.Fatalf("retention on, but Stats kept %d latencies", len(s.Latencies))
	}
}

func TestConcurrentMetricsWiring(t *testing.T) {
	d := concurrentDevice(t)
	if err := d.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	m := telemetry.New()
	d.SetMetrics(m)
	replayTickets(t, d, readTrace(d, 16), 4)
	if got := m.Gauge("ssd.qdepth").Value(); got != 0 {
		t.Fatalf("qdepth after drain = %v, want 0", got)
	}
	if m.Gauge("ssd.qdepth").Max() < 1 {
		t.Fatal("qdepth watermark never rose during submissions")
	}
	// The registry digest replaces the internal one on attach, so only the
	// 16 traced reads are measured — the warm fill stays out.
	snap := d.LatencyDigest()
	if snap.N != 16 {
		t.Fatalf("digest n = %d, want 16 (fill must not pollute the registry digest)", snap.N)
	}
	if snap.P50 <= 0 || snap.Mean <= 0 {
		t.Fatalf("degenerate latency digest %+v", snap)
	}
	if got := m.Counter("ftl.reads.host").Value(); got != 16 {
		t.Fatalf("ftl.reads.host = %d, want 16", got)
	}
	d.SetMetrics(nil)
	if _, err := d.Submit(Request{Kind: OpRead, LPN: 0}); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("ftl.reads.host").Value(); got != 16 {
		t.Fatalf("unwired device still bumped counter: %d", got)
	}
}
