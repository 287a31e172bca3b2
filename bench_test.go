// Benchmarks: one per paper table and figure, each regenerating its
// experiment on the reduced quick configuration so `go test -bench=.`
// exercises every reproduction path, plus ablation benches for the model
// design choices called out in DESIGN.md. Run the full-scale numbers with
// `go run ./cmd/sbsim -all` (see EXPERIMENTS.md).
package superfast_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"superfast/internal/chamber"
	"superfast/internal/core"
	"superfast/internal/experiments"
	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/prng"
	"superfast/internal/profile"
	"superfast/internal/pv"
	"superfast/internal/server"
	"superfast/internal/server/client"
	"superfast/internal/ssd"
	"superfast/internal/stats"
	"superfast/internal/telemetry"
	"superfast/internal/volume"
	"superfast/internal/workload"
)

// benchConfig is the shared reduced configuration. Parallel experiments
// split measurement and simulation across workers on jitter-offset testbeds,
// producing byte-identical tables to a serial run (see
// TestSimThroughputParallelIdentical), so the benchmarks measure the
// parallel wall-clock without changing any result.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.BlocksPerLane = 48
	cfg.Parallel = 8
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil {
			b.Fatal("nil result")
		}
	}
}

func BenchmarkFig5Characterize(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFig6Random(b *testing.B)           { runExperiment(b, "fig6") }
func BenchmarkTable1Directions(b *testing.B)     { runExperiment(b, "table1") }
func BenchmarkTable2Window(b *testing.B)         { runExperiment(b, "table2") }
func BenchmarkTable5Schemes(b *testing.B)        { runExperiment(b, "table5") }
func BenchmarkFig12Improvement(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13Distribution(b *testing.B)    { runExperiment(b, "fig13") }
func BenchmarkFig14PerSB(b *testing.B)           { runExperiment(b, "fig14") }
func BenchmarkFig15PECycles(b *testing.B)        { runExperiment(b, "fig15") }
func BenchmarkOverheadCompute(b *testing.B)      { runExperiment(b, "overhead-compute") }
func BenchmarkOverheadSpace(b *testing.B)        { runExperiment(b, "overhead-space") }
func BenchmarkFTLHostWrites(b *testing.B)        { runExperiment(b, "ftl-host") }
func BenchmarkReadHints(b *testing.B)            { runExperiment(b, "read-hints") }
func BenchmarkSimThroughput(b *testing.B)        { runExperiment(b, "sim-throughput") }
func BenchmarkRetention(b *testing.B)            { runExperiment(b, "retention") }
func BenchmarkRAIDOverhead(b *testing.B)         { runExperiment(b, "raid-overhead") }
func BenchmarkNCQ(b *testing.B)                  { runExperiment(b, "ncq") }
func BenchmarkGCPolicy(b *testing.B)             { runExperiment(b, "gc-policy") }
func BenchmarkTemperature(b *testing.B)          { runExperiment(b, "temperature") }
func BenchmarkLoadSweep(b *testing.B)            { runExperiment(b, "load-sweep") }
func BenchmarkDFTL(b *testing.B)                 { runExperiment(b, "dftl") }
func BenchmarkAblationQuantization(b *testing.B) { runExperiment(b, "ablation-quant") }
func BenchmarkAblationErsCorrelation(b *testing.B) {
	runExperiment(b, "ablation-erscorr")
}
func BenchmarkAblationRemeasure(b *testing.B) { runExperiment(b, "ablation-remeasure") }
func BenchmarkAblationWindow(b *testing.B)    { runExperiment(b, "ablation-window") }
func BenchmarkAblationGlobal(b *testing.B)    { runExperiment(b, "ablation-global") }

// BenchmarkQSTRMedAssembleOnly isolates the scheme's per-superblock cost:
// the reference selection, 12 similarity checks, and free-list updates.
func BenchmarkQSTRMedAssembleOnly(b *testing.B) {
	g := flash.TestGeometry()
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	tb := chamber.New(arr)
	type seedData struct {
		addr  flash.BlockAddr
		sum   float64
		eigen profile.Eigen
	}
	var seeds []seedData
	for lane := 0; lane < g.Lanes(); lane++ {
		chip, plane := g.LaneChipPlane(lane)
		for blk := 0; blk < g.BlocksPerPlane; blk++ {
			prof := tb.FastProfile(lane, blk, 0)
			seeds = append(seeds, seedData{
				addr:  flash.BlockAddr{Chip: chip, Plane: plane, Block: blk},
				sum:   prof.PgmSum,
				eigen: profile.EigenFromProfile(prof),
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		scheme, err := core.NewScheme(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, sd := range seeds {
			scheme.Seed(sd.addr, sd.sum, sd.eigen)
			if err := scheme.AddFree(sd.addr); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for scheme.FreeCount() > 0 {
			if _, err := scheme.Assemble(core.Fast); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConcurrentDevice replays a stamped read burst through the
// thread-safe multi-queue front end at several queue depths (plus the
// serialized Device as the depth-0 baseline) and reports the simulated read
// throughput of each — the load-sweep view of the concurrency model.
func BenchmarkConcurrentDevice(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 8
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	const burst = 64

	b.Run("serialized", func(b *testing.B) {
		var span float64
		for i := 0; i < b.N; i++ {
			dev, err := ssd.New(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := dev.FillSequential(nil); err != nil {
				b.Fatal(err)
			}
			base := dev.Now() + 1000
			var finish float64
			for lpn := int64(0); lpn < burst; lpn++ {
				c, err := dev.Submit(ssd.Request{Kind: ssd.OpRead, LPN: lpn, Arrival: base})
				if err != nil {
					b.Fatal(err)
				}
				if c.Finish > finish {
					finish = c.Finish
				}
			}
			span = finish - base
		}
		b.ReportMetric(float64(burst)/span*1e6, "simreads/s")
	})
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var span float64
			for i := 0; i < b.N; i++ {
				dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := dev.FillSequential(nil); err != nil {
					b.Fatal(err)
				}
				base := dev.Now() + 1000
				reqs := make([]ssd.Request, burst)
				for j := range reqs {
					reqs[j] = ssd.Request{Kind: ssd.OpRead, LPN: int64(j), Arrival: base}
				}
				comps, err := workload.RunConcurrent(dev, reqs, depth)
				if err != nil {
					b.Fatal(err)
				}
				var finish float64
				for _, c := range comps {
					if c.Finish > finish {
						finish = c.Finish
					}
				}
				span = finish - base
				dev.Close()
			}
			b.ReportMetric(float64(burst)/span*1e6, "simreads/s")
		})
	}
}

// BenchmarkServerLoopback drives the TCP block service end to end: a
// pipelining client against a loopback ftl server over the concurrent device,
// closed-loop at several queue depths. The per-op cost includes framing, the
// socket round trip, admission, and the device itself — the wire-protocol
// overhead on top of BenchmarkConcurrentDevice's direct submission path.
func BenchmarkServerLoopback(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(dev.Close)
			if err := dev.FillSequential(nil); err != nil {
				b.Fatal(err)
			}
			capacity := dev.FTL().Capacity()
			srv := server.New(dev, server.Config{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			b.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			})
			cl, err := client.Dial(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { cl.Close() })
			b.ReportAllocs()
			b.ResetTimer()
			pending := make([]*client.Call, 0, depth)
			for i := 0; i < b.N; i++ {
				if len(pending) == depth {
					if _, err := pending[0].Wait(); err != nil {
						b.Fatal(err)
					}
					pending = pending[1:]
				}
				call, err := cl.Start(server.Frame{Op: server.OpRead, LPN: int64(i) % capacity})
				if err != nil {
					b.Fatal(err)
				}
				pending = append(pending, call)
			}
			for _, call := range pending {
				if _, err := call.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVolumeLoopback measures the volume layer: the same open-loop
// write burst against 1, 2 and 4 paced loopback backends, striped by
// internal/volume. Pacing makes every backend hold its admission slot for
// the simulated latency of each write (scaled to wall time), so a backend is
// throughput-bound the way a real device is, and striping the space N ways
// divides the per-backend work; aggregate wops/s scales with N only while
// pacing, not the host CPU, is the bottleneck.
//
// Writes carry stamped arrivals, monotone across iterations, so every
// backend's simulated clock advances with the burst: the paced delay is the
// per-write latency, not a queue that grows with b.N. The cadence is
// calibrated like BenchmarkGCTailLatency's: 3.5× the mean inter-completion
// gap of a closed-loop run on one filled backend device. sim_us/op reports
// the mean simulated write latency, which must stay flat as b.N grows.
func BenchmarkVolumeLoopback(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	scfg := server.Config{MaxInFlight: 16, Pace: 0.05}
	const (
		ops   = 2048
		depth = 64
	)
	payload := []byte("vol-bench-write")
	// overwrite runs one closed-loop pass of the burst's LPN pattern.
	overwrite := func(b *testing.B, dev *ssd.ConcurrentDevice) {
		for j := 0; j < ops; j++ {
			lpn := int64(j) % dev.FTL().Capacity()
			if _, err := dev.Submit(ssd.Request{Kind: ssd.OpWrite, LPN: lpn, Data: payload}); err != nil {
				b.Fatal(err)
			}
		}
	}
	// mkDev builds a backend device in GC steady state: filled, then one
	// overwrite pass (the first pass after a sequential fill is cheaper
	// than every later one).
	mkDev := func(b *testing.B) *ssd.ConcurrentDevice {
		dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.FillSequential(nil); err != nil {
			b.Fatal(err)
		}
		overwrite(b, dev)
		return dev
	}

	cal := mkDev(b)
	calStart := cal.Now()
	overwrite(b, cal)
	gap := 3.5 * (cal.Now() - calStart) / ops

	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends%d", n), func(b *testing.B) {
			addrs := make([]string, n)
			base := 0.0
			for i := range addrs {
				dev := mkDev(b)
				if now := dev.Now(); now > base {
					base = now
				}
				b.Cleanup(dev.Close)
				srv := server.New(dev, scfg)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				go srv.Serve(ln)
				b.Cleanup(func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					srv.Shutdown(ctx)
				})
				addrs[i] = ln.Addr().String()
			}
			v, err := volume.Dial(addrs, volume.Config{Stripe: 8})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { v.Close() })
			span := v.Space()
			var simSum float64
			wait := func(call *volume.Call) {
				r, err := call.Wait()
				if err != nil {
					b.Fatal(err)
				}
				simSum += r.Latency
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pending := make([]*volume.Call, 0, depth)
				for j := 0; j < ops; j++ {
					if len(pending) == depth {
						wait(pending[0])
						pending = pending[1:]
					}
					arrival := base + gap*float64(i*ops+j+1)
					call, err := v.StartWrite(int64(j)%span, payload, ftl.HintNone, 0, arrival, volume.TraceRef{})
					if err != nil {
						b.Fatal(err)
					}
					pending = append(pending, call)
				}
				for _, call := range pending {
					wait(call)
				}
			}
			b.ReportMetric(float64(ops*b.N)/b.Elapsed().Seconds(), "wops/s")
			b.ReportMetric(simSum/float64(ops*b.N), "sim_us/op")
		})
	}
}

// BenchmarkFTLChurn measures steady-state FTL write throughput under GC.
func BenchmarkFTLChurn(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	dev, err := ssd.New(arr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One payload for the whole churn (the serial Device copies at submit
	// entry). Fill with real payloads and overwrite twice ahead of the
	// timer: payload buffers circulate writes→flash→erase→pool, so the fill
	// seeds the circulation and the warmup passes let it ratchet up to
	// self-sufficiency. The measured loop is the recycled steady state,
	// which TestFTLChurnAllocFree pins at zero allocations per write.
	payload := []byte("bench")
	if err := dev.FillSequential(func(int64) []byte { return payload }); err != nil {
		b.Fatal(err)
	}
	capacity := dev.FTL().Capacity()
	churn := func(i int) {
		if _, err := dev.Submit(ssd.Request{
			Kind: ssd.OpWrite, LPN: int64(i*2654435761) % capacity, Data: payload,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*int(capacity); i++ {
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
}

// BenchmarkGCTailLatency replays the same stamped open-loop overwrite burst
// against a blocking-GC device and a preemptive one (8 pages/step) and
// reports the simulated write-latency tail next to the write amplification.
// The ROADMAP win condition reads directly off the metrics: preemptive mode
// shows a large p999_us reduction at equal waf, because the same collections
// run in the inter-arrival windows instead of inside unlucky host writes.
func BenchmarkGCTailLatency(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 48
	g.Layers = 24
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25

	mk := func(b *testing.B, step int) *ssd.Device {
		c := cfg
		c.FTL.GCStepPages = step
		dev, err := ssd.New(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), c)
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.FillSequential(nil); err != nil {
			b.Fatal(err)
		}
		return dev
	}

	// Calibrate the arrival cadence once on a closed-loop blocking run, then
	// stamp the same uniform overwrite trace for both modes: 3.5× the mean
	// inter-completion gap leaves idle windows without idling the device.
	cal := mk(b, 0)
	capacity := cal.FTL().Capacity()
	ops := 3 * int(capacity)
	lpns := make([]int64, ops)
	src := prng.New(1, 0x6cb)
	for i := range lpns {
		lpns[i] = int64(src.Intn(int(capacity)))
	}
	calStart := cal.Now()
	for _, lpn := range lpns {
		if _, err := cal.Submit(ssd.Request{Kind: ssd.OpWrite, LPN: lpn, Data: []byte("w")}); err != nil {
			b.Fatal(err)
		}
	}
	gap := 3.5 * (cal.Now() - calStart) / float64(ops)

	for _, mode := range []struct {
		name string
		step int
	}{{"blocking", 0}, {"preemptive", 8}} {
		b.Run(mode.name, func(b *testing.B) {
			var sum stats.Summary
			var waf float64
			for i := 0; i < b.N; i++ {
				dev := mk(b, mode.step)
				base := dev.Now() + gap
				lats := make([]float64, 0, ops)
				for j, lpn := range lpns {
					c, err := dev.Submit(ssd.Request{
						Kind: ssd.OpWrite, LPN: lpn, Data: []byte("w"),
						Arrival: base + float64(j)*gap,
					})
					if err != nil {
						b.Fatal(err)
					}
					lats = append(lats, c.Latency)
				}
				sum = stats.Summarize(lats)
				waf = dev.FTL().Stats().WAF()
			}
			b.ReportMetric(sum.P99, "p99_us")
			b.ReportMetric(sum.P999, "p999_us")
			b.ReportMetric(waf, "waf")
		})
	}
}

// BenchmarkTelemetryOverhead compares the device hot path with telemetry
// detached (the nil-sink fast path: one branch per hook site) against a run
// with a tracer and metrics registry attached. The "disabled" flavor is the
// default-configuration cost every simulation pays; it must stay within
// noise of the pre-telemetry front end.
func BenchmarkTelemetryOverhead(b *testing.B) {
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	mk := func(b *testing.B) *ssd.ConcurrentDevice {
		dev, err := ssd.NewConcurrent(flash.MustNewArray(g, pv.New(p), flash.DefaultECC()), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.FillSequential(nil); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(dev.Close)
		return dev
	}
	capacity := int64(0)
	read := func(b *testing.B, dev *ssd.ConcurrentDevice, i int) {
		if _, err := dev.Submit(ssd.Request{Kind: ssd.OpRead, LPN: int64(i) % capacity}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, dev, i)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		dev.SetTracer(telemetry.NewTrace())
		dev.SetMetrics(telemetry.New())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, dev, i)
		}
	})
	// The write flavors exercise the sinks the read path never reaches:
	// multi-plane flushes feed the attribution table and the recorder samples
	// on every submission. writes-disabled is the same workload through the
	// nil-sink branches.
	write := func(b *testing.B, dev *ssd.ConcurrentDevice, i int) {
		if _, err := dev.Submit(ssd.Request{
			Kind: ssd.OpWrite, LPN: int64(i*2654435761) % capacity, Data: []byte{byte(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("writes-disabled", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(b, dev, i)
		}
	})
	b.Run("writes-full", func(b *testing.B) {
		dev := mk(b)
		capacity = dev.FTL().Capacity()
		dev.SetTracer(telemetry.NewTrace())
		dev.SetMetrics(telemetry.New())
		dev.SetAttribution(telemetry.NewAttribution())
		rec, err := telemetry.NewRecorder(1000, 4096, ssd.RecorderColumns(g.Chips))
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.AttachRecorder(rec); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(b, dev, i)
		}
	})
}
