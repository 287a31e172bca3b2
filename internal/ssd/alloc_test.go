package ssd

import (
	"testing"

	"superfast/internal/flash"
	"superfast/internal/pv"
)

// TestConcurrentSubmitAllocs pins the telemetry-disabled Submit path's
// allocation count. One single-request submission allocates only the boxed
// request slice and the completion slice — the run list, per-run arrivals
// and data tables come from the pooled submit scratch, latencies go straight
// into the fixed-size digest inside the FTL stage, and the conservative-
// horizon core removed the per-op reply buffers entirely. Nothing is
// allocated per flash operation: the flash array and the latency kernel
// underneath run allocation-free in steady state. The bound leaves one
// object of slack for sync.Pool refills after a GC. A rise here means
// something on the per-request path started allocating again.
func TestConcurrentSubmitAllocs(t *testing.T) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 8
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	d, err := NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.FillSequential(nil); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := d.Submit(Request{Kind: OpRead, LPN: 7}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 3 {
		t.Errorf("telemetry-disabled read Submit allocates %.1f objects, want ≤ 3", n)
	}
}
