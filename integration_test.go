// Integration: the full pipeline the paper describes, crossing every module
// boundary — characterize chips (chamber), organize superblocks offline
// (assembly/core), feed the same silicon to a full SSD (ftl/ssd) under host
// traffic (workload), and check that the offline and runtime views of
// QSTR-MED agree with each other and with the device's observed extra
// latency.
package superfast_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"superfast/internal/assembly"
	"superfast/internal/chamber"
	"superfast/internal/core"
	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/profile"
	"superfast/internal/pv"
	"superfast/internal/ssd"
	"superfast/internal/telemetry"
	"superfast/internal/workload"
)

func integrationGeometry() (flash.Geometry, pv.Params) {
	g := flash.Geometry{
		Chips:          4,
		PlanesPerChip:  1,
		BlocksPerPlane: 40,
		Layers:         24,
		Strings:        4,
		PageSize:       4096,
		SpareSize:      256,
	}
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	return g, p
}

func TestIntegrationOfflineAndRuntimeAgree(t *testing.T) {
	g, p := integrationGeometry()
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	tb := chamber.New(arr)

	// Offline: characterize every block and organize with the batch
	// QSTR-MED (the experiments' path).
	grp := chamber.GroupLanes(g, g.Lanes())[0]
	lanes, err := tb.MeasureGroup(grp, chamber.BlockRange(0, g.BlocksPerPlane), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.BatchAssembler{K: 4}.Assemble(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := assembly.CheckPartition(lanes, batch.Superblocks); err != nil {
		t.Fatal(err)
	}
	mBatch, err := assembly.Evaluate(lanes, batch.Superblocks)
	if err != nil {
		t.Fatal(err)
	}

	// Runtime: seed a Scheme with the same measurements and assemble the
	// same number of fast superblocks; quality must match the batch path.
	scheme, err := core.NewScheme(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for li, lane := range lanes {
		chip, plane := g.LaneChipPlane(grp.Lanes[li])
		for _, bp := range lane.Blocks {
			addr := flash.BlockAddr{Chip: chip, Plane: plane, Block: bp.Block}
			scheme.Seed(addr, bp.PgmSum, profile.EigenFromProfile(bp))
			if err := scheme.AddFree(addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	var runtimeSBs [][]int
	for scheme.FreeCount() > 0 {
		members, err := scheme.Assemble(core.Fast)
		if err != nil {
			t.Fatal(err)
		}
		sb := make([]int, len(members))
		for _, m := range members {
			sb[m.Lane(g)] = m.Block
		}
		runtimeSBs = append(runtimeSBs, sb)
	}
	// lanes[i].Blocks are indexed by block id because MeasureGroup walks
	// blocks in order; translate block ids to indices (identity here).
	mRuntime, err := assembly.Evaluate(lanes, runtimeSBs)
	if err != nil {
		t.Fatal(err)
	}
	// The two paths implement the same algorithm over the same data.
	if diff := mRuntime.MeanPgm - mBatch.MeanPgm; diff > mBatch.MeanPgm*0.02 || diff < -mBatch.MeanPgm*0.02 {
		t.Fatalf("runtime scheme (%v) and batch assembler (%v) diverge", mRuntime.MeanPgm, mBatch.MeanPgm)
	}
}

func TestIntegrationDeviceObservesOrganizedExtraLatency(t *testing.T) {
	// Run the same workload on two devices over identical silicon: the
	// QSTR-MED-organized FTL must observe less extra program latency than
	// the random one, and both must preserve data under GC.
	extra := func(org ftl.Organizer) float64 {
		g, p := integrationGeometry()
		arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
		cfg := ssd.DefaultConfig()
		cfg.FTL.Organizer = org
		cfg.FTL.Overprovision = 0.25
		dev, err := ssd.New(arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		capacity := dev.FTL().Capacity()
		if err := dev.FillSequential(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Run(dev, &workload.HotCold{
			Space: capacity, Count: 2 * capacity, HotFrac: 0.8, HotSpace: 0.2, PageLen: 32, Seed: 7,
		}); err != nil {
			t.Fatal(err)
		}
		if err := dev.FTL().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		st := dev.FTL().Stats()
		if st.GCRuns == 0 {
			t.Fatal("expected GC activity")
		}
		return st.ExtraPgm / float64(st.Flushes)
	}
	q := extra(ftl.QSTRMed)
	r := extra(ftl.RandomOrg)
	if q >= r {
		t.Fatalf("organized extra/flush (%v) should beat random (%v)", q, r)
	}
}

func TestHTTPMetricsSmoke(t *testing.T) {
	// The live-exposition path end to end: drive a device with every sink
	// attached, serve the registry on an ephemeral port, and scrape the
	// endpoints the CLIs advertise. This is the `make check` integration smoke
	// for the -http flag.
	g, p := integrationGeometry()
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	dev, err := ssd.New(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	m := telemetry.New()
	dev.SetMetrics(m)
	attr := telemetry.NewAttribution()
	dev.SetAttribution(attr)
	rec, err := telemetry.NewRecorder(500, 1024, ssd.RecorderColumns(g.Chips))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.AttachRecorder(rec); err != nil {
		t.Fatal(err)
	}
	capacity := dev.FTL().Capacity()
	for i := 0; i < 300; i++ {
		if _, err := dev.Submit(ssd.Request{
			Kind: ssd.OpWrite, LPN: int64(i*2654435761) % capacity, Data: []byte{byte(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	dev.FlushRecorder()

	srv, addr, err := telemetry.Serve("127.0.0.1:0", telemetry.Routes(m, rec, attr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if got := get("/healthz"); got != "ok\n" {
		t.Fatalf("healthz = %q", got)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE ftl_writes_host counter",
		"ssd_latency{quantile=\"0.5\"}",
		"ssd_latency{quantile=\"0.999\"}",
		"ssd_latency_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	if fr := get("/flightrecorder"); !strings.HasPrefix(fr, "t_us,waf,qdepth") {
		t.Fatalf("flightrecorder CSV header missing: %q", fr[:60])
	}
	if at := get("/attribution"); !strings.Contains(at, "\"stragglers\"") {
		t.Fatalf("attribution report lacks stragglers: %.200s", at)
	}
}

func TestIntegrationCharacterizationMatchesDeviceObservations(t *testing.T) {
	// The chamber's fast measurement path and the FTL's in-band gathering
	// observe the same silicon: after the FTL programs a block, the
	// scheme's gathered sum must be close to the chamber's measurement of
	// the same block (temporal jitter only).
	g, p := integrationGeometry()
	p.PgmJitterSigma = 0
	p.PgmWearNoise = 0
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	f, err := ftl.New(arr, ftl.Config{Overprovision: 0.25, GCThreshold: 2, K: 4, MapReadUS: 60, MapProgramUS: 1700})
	if err != nil {
		t.Fatal(err)
	}
	// Write enough to seal at least one superblock.
	n := int64(g.Lanes() * g.LWLsPerBlock() * flash.PagesPerLWL * 2)
	if n > f.Capacity() {
		n = f.Capacity()
	}
	for lpn := int64(0); lpn < n; lpn++ {
		if _, err := f.Write(lpn, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	tb := chamber.New(arr)
	matched := 0
	for lane := 0; lane < g.Lanes(); lane++ {
		chip, plane := g.LaneChipPlane(lane)
		for b := 0; b < g.BlocksPerPlane; b++ {
			addr := flash.BlockAddr{Chip: chip, Plane: plane, Block: b}
			if !f.Scheme().Known(addr) {
				continue
			}
			lats, err := arr.LWLLatencies(addr)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, v := range lats {
				sum += v
			}
			ref := tb.FastProfile(lane, b, 1) // programs happened at P/E ~0-1
			rel := (sum - ref.PgmSum) / ref.PgmSum
			if rel < -0.02 || rel > 0.02 {
				t.Fatalf("block %v: gathered sum %v vs chamber %v", addr, sum, ref.PgmSum)
			}
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no fully characterized blocks to compare")
	}
}
