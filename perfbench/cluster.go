package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/prng"
	"superfast/internal/server"
	"superfast/internal/server/client"
	"superfast/internal/ssd"
	"superfast/internal/telemetry"
	"superfast/internal/volume"
)

// cluster-mixed: the ftlload → ftlvol → ftlserve path in one process over
// loopback TCP. Two block-service backends over pre-filled devices
// (preemptive GC, unpaced), one volume proxy striping them (stripe 64,
// 2 replicas), and 2 client connections each keeping 16 requests in flight:
// 70 % reads, 30 % writes of 4 KiB pages, uniform over the volume. Wire
// framing, admission, the proxy hop and replica fan-out do almost all the
// work; each device op costs the host about a microsecond.

var clusterSpec = devSpec{chips: 4, blocks: 32, layers: 8, pageSize: clusterPayload, gcStep: 8}

const (
	clusterBackends = 2
	clusterConns    = 2
	clusterDepth    = 16
	clusterWorkers  = clusterConns * clusterDepth
	clusterPayload  = 4096
	clusterReadFrac = 0.7
	clusterWarmOps  = 100 // ops per worker before the clock starts
	clusterBucket   = 500 * time.Millisecond
)

// backendNode is one block-service backend: a device and its server.
type backendNode struct {
	dev  *ssd.ConcurrentDevice
	srv  *server.Server
	led  *telemetry.Ledger
	addr string
	done chan error
}

// startBackend builds one backend; with ledgers, its server and device
// record hop ledgers for traced frames.
func startBackend(i int, ledgers bool) (*backendNode, error) {
	dev, err := clusterSpec.newDevice()
	if err != nil {
		return nil, err
	}
	var led *telemetry.Ledger
	if ledgers {
		led = telemetry.NewLedger(fmt.Sprintf("srv:%d", i))
		dev.SetLedger(led)
	}
	srv := server.New(dev, server.Config{Ledger: led})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dev.Close()
		return nil, err
	}
	b := &backendNode{dev: dev, srv: srv, led: led, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { b.done <- srv.Serve(ln) }()
	return b, nil
}

func (b *backendNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx)
	<-b.done
	b.dev.Close()
}

// cluster is the whole in-process stack plus the load's client connections.
type cluster struct {
	bks     []*backendNode
	vol     *volume.Volume
	volLed  *telemetry.Ledger
	proxy   *volume.Proxy
	done    chan error
	clients []*client.Client
	cliLed  *telemetry.Ledger
	load    *clusterLoad
}

// startCluster builds the stack, writes every volume page once, connects
// the clients and warms every path (connections, payload buffers, GC state)
// with a short verified load.
// With ledgers, every layer records hop ledgers for traced frames.
func startCluster(seed uint64, ledgers bool) (*cluster, error) {
	c := &cluster{done: make(chan error, 1)}
	addrs := make([]string, 0, clusterBackends)
	for i := 0; i < clusterBackends; i++ {
		b, err := startBackend(i, ledgers)
		if err != nil {
			c.close()
			return nil, err
		}
		c.bks = append(c.bks, b)
		addrs = append(addrs, b.addr)
	}
	vol, err := volume.Dial(addrs, volume.Config{Stripe: 64, Replicas: 2})
	if err != nil {
		c.close()
		return nil, err
	}
	c.vol = vol
	if ledgers {
		c.volLed = telemetry.NewLedger("vol")
		vol.SetLedger(c.volLed)
		c.cliLed = telemetry.NewLedger("load")
	}
	c.proxy = volume.NewProxy(vol, volume.ProxyConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	go func() { c.done <- c.proxy.Serve(ln) }()
	for i := 0; i < clusterConns; i++ {
		cl, err := client.Dial(ln.Addr().String())
		if err != nil {
			c.close()
			return nil, err
		}
		if ledgers {
			cl.SetLedger(c.cliLed)
		}
		c.clients = append(c.clients, cl)
	}
	c.load = newClusterLoad(seed, vol.Space())
	if err := c.load.fill(volumeTarget{vol}); err != nil {
		c.close()
		return nil, fmt.Errorf("volume fill: %w", err)
	}
	if r := c.load.pass(c.clientTargets(false), 0, clusterWarmOps, nil, ""); r.failed > 0 {
		c.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", r.failed, r.ops)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.proxy != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		c.proxy.Shutdown(ctx)
		cancel()
		<-c.done
	}
	if c.vol != nil {
		c.vol.Close()
	}
	for _, b := range c.bks {
		b.stop()
	}
}

// target is one layer's public API as a worker calls it.
type target interface {
	read(id uint64, lpn int64) ([]byte, error)
	write(id uint64, lpn int64, data []byte) error
}

// clientTarget calls client.Client — through the proxy or straight at one
// backend. traced frames carry the trace extension, so every hop ledger
// records them.
type clientTarget struct {
	c      *client.Client
	traced bool
}

func (t clientTarget) do(f server.Frame, id uint64) (server.Response, error) {
	if t.traced {
		f.Flags |= server.FlagTrace
		f.Trace = id
		f.ParentHop = telemetry.HopClient
	}
	r, err := t.c.Do(f)
	if err == nil {
		err = r.Err()
	}
	return r, err
}

func (t clientTarget) read(id uint64, lpn int64) ([]byte, error) {
	r, err := t.do(server.Frame{Op: server.OpRead, LPN: lpn}, id)
	return r.Payload, err
}

func (t clientTarget) write(id uint64, lpn int64, data []byte) error {
	_, err := t.do(server.Frame{Op: server.OpWrite, LPN: lpn, Payload: data}, id)
	return err
}

// volumeTarget calls the volume in-process, with no proxy.
type volumeTarget struct{ v *volume.Volume }

func (t volumeTarget) read(_ uint64, lpn int64) ([]byte, error) {
	r, err := t.v.Read(lpn)
	if err == nil {
		err = r.Err()
	}
	return r.Payload, err
}

func (t volumeTarget) write(_ uint64, lpn int64, data []byte) error {
	r, err := t.v.Write(lpn, data, ftl.HintNone)
	if err == nil {
		err = r.Err()
	}
	return err
}

// deviceTarget submits straight to one backend's device.
type deviceTarget struct{ dev *ssd.ConcurrentDevice }

func (t deviceTarget) read(_ uint64, lpn int64) ([]byte, error) {
	c, err := t.dev.Submit(ssd.Request{Kind: ssd.OpRead, LPN: lpn})
	return c.Data, err
}

func (t deviceTarget) write(_ uint64, lpn int64, data []byte) error {
	_, err := t.dev.Submit(ssd.Request{Kind: ssd.OpWrite, LPN: lpn, Data: data})
	return err
}

// clientTargets spreads the workers over the client connections, depth per
// connection.
func (c *cluster) clientTargets(traced bool) []target {
	ts := make([]target, clusterWorkers)
	for w := range ts {
		ts[w] = clientTarget{c: c.clients[w/clusterDepth], traced: traced}
	}
	return ts
}

func sameTarget(t target, n int) []target {
	ts := make([]target, n)
	for i := range ts {
		ts[i] = t
	}
	return ts
}

// unknown marks a page whose contents the load cannot predict (written
// below the volume, whose placement it does not model); reads of it are
// not verified until the load writes it.
const unknown = ^uint64(0)

// clusterLoad is the seeded closed-loop load. Worker w owns the volume
// pages ≡ w (mod clusterWorkers) — so each connection owns a disjoint slice
// — and keeps a shadow of the version it last had acknowledged for each.
type clusterLoad struct {
	workers []*loadWorker
}

type loadWorker struct {
	id      int
	src     *prng.Source
	owned   int64
	version []uint64 // per owned page; 0 = the fill's empty page
	writes  uint64
	ops     uint64 // trace ids: worker-unique, nonzero
}

func newClusterLoad(seed uint64, space int64) *clusterLoad {
	l := &clusterLoad{}
	for w := 0; w < clusterWorkers; w++ {
		owned := (space - int64(w) + clusterWorkers - 1) / clusterWorkers
		l.workers = append(l.workers, &loadWorker{
			id: w, src: prng.New(seed, 0xc1, w), owned: owned, version: make([]uint64, owned),
		})
	}
	return l
}

// forget marks every page unknown, before the load moves below the volume.
func (l *clusterLoad) forget() {
	for _, w := range l.workers {
		for i := range w.version {
			w.version[i] = unknown
		}
	}
}

// passResult is one closed-loop pass's measurements.
type passResult struct {
	ops, failed int64
	elapsed     time.Duration
	latUS       []float64 // sorted
	ends        []time.Duration
	readsUS     []float64 // per-read latency, unsorted
	writesUS    []float64 // per-write latency, unsorted
}

// rate is the median completion rate over clusterBucket intervals, each
// measured between its first and last completion (the last, partial
// interval excluded); with fewer than two full intervals, the pass average.
func (r passResult) rate() float64 {
	n := int(r.elapsed / clusterBucket)
	if n < 2 {
		return float64(r.ops) / r.elapsed.Seconds()
	}
	type bucket struct {
		first, last time.Duration
		count       int
	}
	bs := make([]bucket, n)
	for _, e := range r.ends {
		b := int(e / clusterBucket)
		if b >= n {
			continue
		}
		k := &bs[b]
		if k.count == 0 || e < k.first {
			k.first = e
		}
		if e > k.last {
			k.last = e
		}
		k.count++
	}
	rates := make([]float64, 0, n)
	for _, k := range bs {
		if k.count > 1 && k.last > k.first {
			rates = append(rates, float64(k.count-1)/(k.last-k.first).Seconds())
		}
	}
	return median(rates)
}

// pass runs the first len(ts) workers, each against its target, until d
// elapses (or, with d = 0, for perWorker ops each), verifying each read
// against the shadow. With a span log, each call becomes a span of the
// given layer.
func (l *clusterLoad) pass(ts []target, d time.Duration, perWorker int, log *spanLog, layer string) passResult {
	type local struct {
		lat, reads, writes []float64
		ends               []time.Duration
		spans              []span
		ops, failed        int64
	}
	locals := make([]local, len(ts))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for wi, w := range l.workers[:len(ts)] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := &locals[wi]
			for n := 0; ; n++ {
				if (d > 0 && !time.Now().Before(deadline)) || (d == 0 && n >= perWorker) {
					return
				}
				ok, isRead, t0, t1 := w.step(ts[wi])
				us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
				lo.ops++
				if !ok {
					lo.failed++
				}
				lo.lat = append(lo.lat, us)
				lo.ends = append(lo.ends, t1.Sub(start))
				if isRead {
					lo.reads = append(lo.reads, us)
				} else {
					lo.writes = append(lo.writes, us)
				}
				if log != nil {
					lo.spans = append(lo.spans, span{ID: int64(w.id)<<40 | int64(w.ops), Layer: layer,
						Start: log.since(t0), End: log.since(t1)})
				}
			}
		}()
	}
	wg.Wait()
	r := passResult{elapsed: time.Since(start)}
	for i := range locals {
		lo := &locals[i]
		r.ops += lo.ops
		r.failed += lo.failed
		r.latUS = append(r.latUS, lo.lat...)
		r.ends = append(r.ends, lo.ends...)
		r.readsUS = append(r.readsUS, lo.reads...)
		r.writesUS = append(r.writesUS, lo.writes...)
		if log != nil {
			log.add(lo.spans)
		}
	}
	sort.Float64s(r.latUS)
	return r
}

// step issues one op and checks it: a write must be acknowledged, a read
// must return exactly the shadowed version. It returns the verdict, the
// op kind and the call's start and end.
func (w *loadWorker) step(t target) (ok, isRead bool, t0, t1 time.Time) {
	k := int64(w.src.Intn(int(w.owned)))
	lpn := int64(w.id) + k*clusterWorkers
	isRead = w.src.Float64() < clusterReadFrac
	w.ops++
	id := uint64(w.id)<<40 | w.ops
	if isRead {
		t0 = time.Now()
		data, err := t.read(id, lpn)
		t1 = time.Now()
		want := w.version[k]
		return err == nil && (want == unknown || stampOK(data, clusterPayload, lpn, want)), true, t0, t1
	}
	version, data := w.nextWrite(lpn)
	t0 = time.Now()
	err := t.write(id, lpn, data)
	t1 = time.Now()
	w.settle(k, version, err)
	return err == nil, false, t0, t1
}

// nextWrite builds the page's next version and its payload.
func (w *loadWorker) nextWrite(lpn int64) (uint64, []byte) {
	w.writes++
	version := uint64(w.id+1)<<40 | w.writes
	return version, stamp(clusterPayload, lpn, version)
}

// settle shadows an acknowledged write. After a failed one the page holds
// either version, so the load stops verifying it.
func (w *loadWorker) settle(k int64, version uint64, err error) {
	if err != nil {
		version = unknown
	}
	w.version[k] = version
}

// fill writes every page once through t, one goroutine per worker, so the
// load reads full 4 KiB pages from its first op.
func (l *clusterLoad) fill(t target) error {
	errs := make([]error, len(l.workers))
	var wg sync.WaitGroup
	for i, w := range l.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); k < w.owned && errs[i] == nil; k++ {
				lpn := int64(w.id) + k*clusterWorkers
				version, data := w.nextWrite(lpn)
				errs[i] = t.write(0, lpn, data)
				w.settle(k, version, errs[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runClusterMixed(opt options) (*outcome, error) {
	oc := newOutcome()
	c, setupS, err := timeSetups(5, func() (*cluster, error) { return startCluster(opt.seed, false) }, (*cluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	oc.set("setup_s", setupS)
	cpu0 := cpuTime()
	r := c.load.pass(c.clientTargets(false), opt.duration, 0, nil, "")
	oc.set("cpu_us_per_op", perOpUS(cpuTime()-cpu0, r.ops))
	oc.attempted, oc.failed = r.ops, r.failed
	oc.set("ops_per_s", r.rate())
	oc.set("p50_us", percentile(r.latUS, 0.5))
	fmt.Printf("cluster-mixed: %d ops, p50 %.1f µs, p99 %.1f µs (n=%d)\n",
		r.ops, percentile(r.latUS, 0.5), tailOrZero(r.latUS, 0.99), len(r.latUS))
	return oc, nil
}

// serverTotals sums the backends' serving counters.
func (c *cluster) serverTotals() server.ServerStats {
	var t server.ServerStats
	for _, b := range c.bks {
		s := b.srv.Stats()
		t.Accepted += s.Accepted
		t.Rejected += s.Rejected
		t.BytesIn += s.BytesIn
		t.BytesOut += s.BytesOut
	}
	return t
}

// traceClusterMixed walks the rung ladder. Each rung replays the seeded
// load one layer lower for a share of the budget; a rung's cost is its wall
// time per op, and a layer's self time is the difference between adjacent
// rungs.
func traceClusterMixed(opt options) (*outcome, error) {
	oc := newOutcome()
	log := newSpanLog()
	share := opt.duration / 7
	c, err := startCluster(opt.seed, false)
	if err != nil {
		return nil, err
	}
	defer c.close()
	account := func(r passResult) {
		oc.attempted += r.ops
		oc.failed += r.failed
	}

	// client rung, without and with the benchmark's spans.
	plain := c.load.pass(c.clientTargets(false), share, 0, nil, "")
	account(plain)
	var win simWindow
	win.open(c.bks[0].dev)
	cr := c.load.pass(c.clientTargets(false), share, 0, log, "client")
	account(cr)
	clientUS := perOpUS(cr.elapsed, cr.ops)
	oc.set("client.rung_us", clientUS)
	oc.set("client.p99_us", tailOrZero(cr.latUS, 0.99))
	oc.set("client.p999_us", tailOrZero(cr.latUS, 0.999))
	oc.set("client.samples", float64(len(cr.latUS)))
	oc.set("bench.span_overhead", overhead(cr.rate(), plain.rate()))

	// volume rung: the volume in-process, no proxy.
	before := c.serverTotals()
	vr := c.load.pass(sameTarget(volumeTarget{c.vol}, clusterWorkers), share, 0, log, "volume")
	account(vr)
	legs := float64(c.serverTotals().Accepted-before.Accepted) / float64(vr.ops)
	win.close(c.bks[0].dev)
	volumeUS := perOpUS(vr.elapsed, vr.ops)
	vc := c.vol.ClusterStat().Volume
	oc.set("volume.rung_us", volumeUS)
	oc.set("proxy.self_us", selfTime(clientUS, volumeUS, 1))
	oc.set("volume.legs_per_op", legs)
	oc.set("volume.read_retries", float64(vc.Retries))
	oc.set("volume.read_repairs", float64(vc.Repairs))
	oc.set("volume.down_skips", float64(vc.DownSkips))
	setWindowCounts(oc, &win)

	// server rung: clients straight at backend 0, below the volume's
	// placement, so pages start unknown to the shadow.
	c.load.forget()
	var direct []*client.Client
	defer func() {
		for _, cl := range direct {
			cl.Close()
		}
	}()
	sts := make([]target, clusterWorkers)
	for i := 0; i < clusterConns; i++ {
		cl, err := client.Dial(c.bks[0].addr)
		if err != nil {
			return nil, err
		}
		direct = append(direct, cl)
	}
	for w := range sts {
		sts[w] = clientTarget{c: direct[w/clusterDepth]}
	}
	before = c.serverTotals()
	sr := c.load.pass(sts, share, 0, log, "server")
	account(sr)
	after := c.serverTotals()
	serverUS := perOpUS(sr.elapsed, sr.ops)
	oc.set("server.rung_us", serverUS)
	oc.set("volume.self_us", selfTime(volumeUS, serverUS, legs))
	oc.set("server.accepted", float64(after.Accepted-before.Accepted))
	oc.set("server.rejected", float64(after.Rejected-before.Rejected))
	oc.set("server.bytes_per_op", float64(after.BytesIn-before.BytesIn+after.BytesOut-before.BytesOut)/
		float64(after.Accepted-before.Accepted))

	// ssd rung: backend 0's device, two submitters.
	dr := c.load.pass(sameTarget(deviceTarget{c.bks[0].dev}, churnWriters), share, 0, log, "ssd")
	account(dr)
	ssdUS := perOpUS(dr.elapsed, dr.ops)
	oc.set("server.self_us", selfTime(serverUS, ssdUS, 1))
	oc.set("ssd.read_ns", mean(dr.readsUS)*1e3)
	oc.set("ssd.write_ns", mean(dr.writesUS)*1e3)

	// ftl rung: backend 0's FTL called directly, one submitter.
	fr := c.load.pass([]target{ftlTarget{dev: c.bks[0].dev, gcStep: clusterSpec.gcStep}}, share, 0, log, "ftl")
	account(fr)
	ftlNS := perOpUS(fr.elapsed, fr.ops) * 1e3
	oc.set("ftl.rung_ns", ftlNS)
	oc.set("ssd.self_ns", selfTime(ssdUS*1e3, ftlNS, 1))
	checkInvariants(oc, c.bks[0].dev)

	oc.set("proto.codec_ns", codecNS(opt.seed))

	// The same client load through a cluster whose every layer records a
	// hop ledger for traced frames.
	lc, err := startCluster(opt.seed, true)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	lr := lc.load.pass(lc.clientTargets(true), share, 0, nil, "")
	account(lr)
	oc.set("telemetry.ledger_overhead", overhead(lr.rate(), plain.rate()))
	var recs [][]telemetry.HopRecord
	for _, b := range lc.bks {
		recs = append(recs, b.led.Records())
	}
	adm := telemetry.LedgerBreakdown(telemetry.MergeRecords(recs...)).Hops[telemetry.HopAdmission]
	oc.set("server.admission_wait_p50_us", adm.P50)
	oc.set("server.admission_wait_p99_us", adm.P99)
	zeroLayers(oc)
	return oc, log.write(opt.spans)
}

// ftlTarget calls one device's FTL directly (under the device's FTL lock),
// one GC step after each write as the device's idle-window stepping would.
type ftlTarget struct {
	dev    *ssd.ConcurrentDevice
	gcStep int
}

func (t ftlTarget) read(_ uint64, lpn int64) ([]byte, error) {
	var r ftl.ReadResult
	var err error
	t.dev.WithFTL(func(f *ftl.FTL) { r, err = f.Read(lpn) })
	return r.Data, err
}

func (t ftlTarget) write(_ uint64, lpn int64, data []byte) error {
	var err error
	t.dev.WithFTL(func(f *ftl.FTL) {
		if _, err = f.Write(lpn, data); err == nil {
			_, err = f.GCStep(t.gcStep)
		}
	})
	return err
}

// codecNS times the wire codec on the load's frame mix: encode and decode
// of each request and of its response, ns per op.
func codecNS(seed uint64) float64 {
	const n = 4096
	src := prng.New(seed, 0xc0dec)
	frames := make([]server.Frame, n)
	resps := make([]server.Response, n)
	page := stamp(clusterPayload, 1, 1)
	for i := range frames {
		frames[i] = server.Frame{Op: server.OpWrite, ID: uint64(i + 1), LPN: int64(src.Intn(1 << 20)), Payload: page}
		resps[i] = server.Response{Status: server.StatusOK, ID: uint64(i + 1), Latency: 100}
		if src.Float64() < clusterReadFrac {
			frames[i].Op, frames[i].Payload = server.OpRead, nil
			resps[i].Payload = page
		}
	}
	var buf []byte
	rounds := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for i := range frames {
			buf, _ = server.AppendFrame(buf[:0], frames[i])
			if _, _, err := server.DecodeFrame(buf); err != nil {
				return 0
			}
			buf, _ = server.AppendResponse(buf[:0], resps[i])
			if _, _, err := server.DecodeResponse(buf); err != nil {
				return 0
			}
		}
		rounds++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*n)
}
