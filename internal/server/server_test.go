package server

import (
	"context"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"superfast/internal/flash"
	"superfast/internal/pv"
	"superfast/internal/ssd"
	"superfast/internal/telemetry"
	"superfast/internal/workload"
)

// testDevice builds a small concurrent device; identical calls build
// bit-identical devices, which the loopback equivalence test relies on.
func testDevice(t testing.TB) *ssd.ConcurrentDevice {
	t.Helper()
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	cfg := ssd.DefaultConfig()
	cfg.FTL.Overprovision = 0.25
	d, err := ssd.NewConcurrent(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// startServer serves cfg over a loopback listener and returns the server and
// its address. The server is shut down at test cleanup.
func startServer(t testing.TB, dev *ssd.ConcurrentDevice, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(dev, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// rawConn is a minimal test client over one socket: synchronous calls, and a
// pipelined form for the drain test.
type rawConn struct {
	t  testing.TB
	nc net.Conn
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (c *rawConn) send(f Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = c.nc.Write(buf)
	return err
}

func (c *rawConn) recv() (Response, error) {
	r, _, err := ReadResponse(c.nc)
	return r, err
}

func (c *rawConn) call(f Frame) Response {
	c.t.Helper()
	if err := c.send(f); err != nil {
		c.t.Fatalf("send %v: %v", f.Op, err)
	}
	r, err := c.recv()
	if err != nil {
		c.t.Fatalf("recv for %v: %v", f.Op, err)
	}
	if r.ID != f.ID {
		c.t.Fatalf("response id %d for request id %d", r.ID, f.ID)
	}
	return r
}

func TestServerBasicOps(t *testing.T) {
	dev := testDevice(t)
	srv, addr := startServer(t, dev, Config{})
	c := dialRaw(t, addr)

	if r := c.call(Frame{Op: OpPing, ID: 1}); r.Status != StatusOK {
		t.Fatalf("ping: %v", r.Status)
	}
	payload := []byte("page five contents")
	if r := c.call(Frame{Op: OpWrite, ID: 2, LPN: 5, Payload: payload}); r.Status != StatusOK || r.Latency <= 0 {
		t.Fatalf("write: %+v", r)
	}
	r := c.call(Frame{Op: OpRead, ID: 3, LPN: 5})
	if r.Status != StatusOK || r.Latency <= 0 {
		t.Fatalf("read: %+v", r)
	}
	if !strings.HasPrefix(string(r.Payload), string(payload)) {
		t.Fatalf("read data %q, want prefix %q", r.Payload, payload)
	}
	if r := c.call(Frame{Op: OpFlush, ID: 4}); r.Status != StatusOK {
		t.Fatalf("flush: %v", r.Status)
	}
	if r := c.call(Frame{Op: OpTrim, ID: 5, LPN: 5}); r.Status != StatusOK {
		t.Fatalf("trim: %+v", r)
	}
	// Reading the trimmed page maps ftl.ErrUnmapped onto BAD_REQUEST.
	if r := c.call(Frame{Op: OpRead, ID: 6, LPN: 5}); r.Status != StatusBadRequest {
		t.Fatalf("read after trim: %v", r.Status)
	}
	// Out-of-range LPN is also the client's fault.
	if r := c.call(Frame{Op: OpRead, ID: 7, LPN: 1 << 40}); r.Status != StatusBadRequest {
		t.Fatalf("out of range read: %v", r.Status)
	}

	st := srv.Stats()
	if st.Conns != 1 || st.ConnsEver != 1 {
		t.Fatalf("conns %d/%d, want 1/1", st.Conns, st.ConnsEver)
	}
	if st.Accepted != 7 || st.Responses != 7 {
		t.Fatalf("accepted %d responses %d, want 7/7", st.Accepted, st.Responses)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("byte counters not wired: %+v", st)
	}
}

func TestServerStat(t *testing.T) {
	dev := testDevice(t)
	_, addr := startServer(t, dev, Config{})
	c := dialRaw(t, addr)
	c.call(Frame{Op: OpWrite, ID: 1, LPN: 0, Payload: []byte("x")})

	r := c.call(Frame{Op: OpStat, ID: 2})
	if r.Status != StatusOK {
		t.Fatalf("stat: %v", r.Status)
	}
	body := string(r.Payload)
	for _, key := range []string{"capacity_lpns", "page_size", "device", "ftl", "waf", "chips", "server"} {
		if !strings.Contains(body, `"`+key+`"`) {
			t.Fatalf("stat payload missing %q: %s", key, body)
		}
	}
}

func TestServerSequencedFlagMismatch(t *testing.T) {
	dev := testDevice(t)
	_, addr := startServer(t, dev, Config{}) // not sequenced
	c := dialRaw(t, addr)
	r := c.call(Frame{Op: OpWrite, ID: 1, LPN: 0, Payload: []byte("x"), Flags: FlagSequenced})
	if r.Status != StatusBadRequest {
		t.Fatalf("sequenced frame on plain server: %v", r.Status)
	}

	dev2 := testDevice(t)
	_, addr2 := startServer(t, dev2, Config{Sequenced: true})
	c2 := dialRaw(t, addr2)
	r = c2.call(Frame{Op: OpWrite, ID: 1, LPN: 0, Payload: []byte("x")})
	if r.Status != StatusBadRequest {
		t.Fatalf("plain frame on sequenced server: %v", r.Status)
	}
}

func TestServerPace(t *testing.T) {
	dev := testDevice(t)
	srv, addr := startServer(t, dev, Config{Pace: 2}) // 2 wall-µs per simulated µs
	c := dialRaw(t, addr)
	start := time.Now()
	// A single buffered write completes in sub-µs simulated time (no flash
	// program, just a buffer fill) — drive enough sequential writes to flush
	// super-word-line buffers and accrue real program latency to pace against.
	var totalLat float64
	for i := 0; i < 48; i++ {
		r := c.call(Frame{Op: OpWrite, ID: uint64(i + 1), LPN: int64(i), Payload: []byte("paced page")})
		if r.Status != StatusOK {
			t.Fatalf("write %d: %v", i, r.Status)
		}
		totalLat += r.Latency
	}
	slept := srv.pacedSlept.Load()
	if slept == 0 {
		t.Fatalf("no paced sleep recorded over %.1f µs of simulated latency", totalLat)
	}
	// Calls were synchronous on one connection, so the wall clock must cover
	// every recorded sleep.
	if wall := time.Since(start); wall < time.Duration(slept)*time.Microsecond {
		t.Fatalf("wall %v < paced %d µs", wall, slept)
	}
}

// TestServerPacedResponsesOverlap: paced delays run concurrently, like a
// real device's queue — 16 reads pipelined on one connection finish in well
// under the sum of their paced sleeps. A server that slept inline on the
// connection's handler would take the whole sum.
func TestServerPacedResponsesOverlap(t *testing.T) {
	dev := testDevice(t)
	// Write enough pages directly to push the early ones out of the
	// super-word-line buffer, so reads pay a real flash read to pace against.
	for i := 0; i < 48; i++ {
		if _, err := dev.Submit(ssd.Request{Kind: ssd.OpWrite, LPN: int64(i), Data: []byte("paced page")}); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := startServer(t, dev, Config{Pace: 20})
	c := dialRaw(t, addr)
	const reads = 16
	start := time.Now()
	for i := 0; i < reads; i++ {
		if err := c.send(Frame{Op: OpRead, ID: uint64(i + 1), LPN: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reads; i++ {
		r, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != StatusOK {
			t.Fatalf("read %d: %v", r.ID, r.Status)
		}
	}
	wall := time.Since(start)
	slept := time.Duration(srv.pacedSlept.Load()) * time.Microsecond
	if slept < 20*time.Millisecond {
		t.Fatalf("paced only %v over %d reads; too little to measure overlap", slept, reads)
	}
	if wall >= slept/2 {
		t.Fatalf("wall %v for %v of paced sleep: paced responses did not overlap", wall, slept)
	}
}

func TestServerMetricsWired(t *testing.T) {
	dev := testDevice(t)
	reg := telemetry.New()
	srv, addr := startServer(t, dev, Config{Metrics: reg})
	c := dialRaw(t, addr)
	c.call(Frame{Op: OpWrite, ID: 1, LPN: 1, Payload: []byte("x")})
	c.call(Frame{Op: OpPing, ID: 2})

	if got := reg.Counter("srv.accepted").Value(); got != 2 {
		t.Fatalf("srv.accepted = %d, want 2", got)
	}
	if got := reg.Counter("srv.responses").Value(); got != 2 {
		t.Fatalf("srv.responses = %d, want 2", got)
	}
	if reg.Counter("srv.bytes_in").Value() == 0 || reg.Counter("srv.bytes_out").Value() == 0 {
		t.Fatal("byte counters not mirrored")
	}
	if got := reg.Gauge("srv.conns").Value(); got != 1 {
		t.Fatalf("srv.conns = %v, want 1", got)
	}
	if got := reg.Counter("srv.conns_total").Value(); got != 1 {
		t.Fatalf("srv.conns_total = %d, want 1", got)
	}

	cols := RecorderColumns()
	vals := make([]float64, len(cols))
	srv.RecorderSampler()(vals)
	if vals[0] != 1 { // srv_conns
		t.Fatalf("sampled conns = %v, want 1", vals[0])
	}
	if vals[2] != 2 { // srv_accepted
		t.Fatalf("sampled accepted = %v, want 2", vals[2])
	}
}

func TestServerDeadline(t *testing.T) {
	dev := testDevice(t)
	// Sequenced mode makes the deadline deterministic: ticket 1 cannot be
	// admitted while ticket 0 is missing, so its wait expires.
	srv, addr := startServer(t, dev, Config{Sequenced: true, Deadline: 25 * time.Millisecond})
	c := dialRaw(t, addr)
	r := c.call(Frame{Op: OpWrite, ID: 1, LPN: 5, Payload: []byte("late"), Flags: FlagSequenced, Seq: 1})
	if r.Status != StatusDeadline {
		t.Fatalf("orphaned ticket: %v, want DEADLINE", r.Status)
	}
	// The chain must survive the rejection: ticket 0 still runs, and the
	// retired ticket 1 is skipped so ticket 2 runs too.
	if r := c.call(Frame{Op: OpWrite, ID: 2, LPN: 0, Payload: []byte("a"), Flags: FlagSequenced, Seq: 0}); r.Status != StatusOK {
		t.Fatalf("ticket 0: %v", r.Status)
	}
	if r := c.call(Frame{Op: OpWrite, ID: 3, LPN: 1, Payload: []byte("b"), Flags: FlagSequenced, Seq: 2}); r.Status != StatusOK {
		t.Fatalf("ticket 2 after retired ticket 1: %v", r.Status)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestServeAfterShutdownFails(t *testing.T) {
	dev := testDevice(t)
	srv := New(dev, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown should fail")
	}
}

// TestLoopbackTraceReplayMatchesDirect is the acceptance check: a sequenced
// multi-connection replay through the TCP server produces, request for
// request, the exact simulated latencies and device statistics of a direct
// workload.RunConcurrent replay on an identical device.
func TestLoopbackTraceReplayMatchesDirect(t *testing.T) {
	devDirect := testDevice(t)
	space := devDirect.FTL().Capacity()
	gen := func() workload.Generator {
		return &workload.Paced{
			Gen:       &workload.Mixed{Space: space, Count: 400, ReadFrac: 0.4, PageLen: 24, Seed: 11},
			MeanGapUS: 40,
			Seed:      12,
		}
	}
	reqs := workload.Collect(gen())
	direct, err := workload.RunConcurrent(devDirect, workload.Collect(gen()), 4)
	if err != nil {
		t.Fatal(err)
	}

	devServed := testDevice(t)
	srv, addr := startServer(t, devServed, Config{Sequenced: true, MaxInFlight: 32, MaxPerConn: 16})

	const conns = 3
	lat := make([]float64, len(reqs))
	status := make([]Status, len(reqs))
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			// Writer side: stream this connection's share, stamped with the
			// global index as the replay ticket.
			idsToIndex := make(map[uint64]int)
			var mine []int
			for i := ci; i < len(reqs); i += conns {
				mine = append(mine, i)
			}
			go func() {
				var buf []byte
				for _, i := range mine {
					f := Frame{ID: uint64(i + 1), LPN: reqs[i].LPN, Arrival: reqs[i].Arrival,
						Flags: FlagSequenced, Seq: uint64(i)}
					switch reqs[i].Kind {
					case ssd.OpRead:
						f.Op = OpRead
					case ssd.OpWrite:
						f.Op = OpWrite
						f.Payload = reqs[i].Data
						f.Hint = reqs[i].Hint
					case ssd.OpTrim:
						f.Op = OpTrim
					}
					buf, err = AppendFrame(buf[:0], f)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := nc.Write(buf); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for _, i := range mine {
				idsToIndex[uint64(i+1)] = i
			}
			for range mine {
				r, _, err := ReadResponse(nc)
				if err != nil {
					t.Error(err)
					return
				}
				i, ok := idsToIndex[r.ID]
				if !ok {
					t.Errorf("unknown response id %d", r.ID)
					return
				}
				lat[i] = r.Latency
				status[i] = r.Status
			}
		}(ci)
	}
	wg.Wait()

	for i := range reqs {
		if status[i] != StatusOK {
			t.Fatalf("request %d: status %v", i, status[i])
		}
		if lat[i] != direct[i].Latency {
			t.Fatalf("request %d: served latency %v, direct %v", i, lat[i], direct[i].Latency)
		}
	}

	ds, ss := devDirect.Stats(), devServed.Stats()
	ds.Latencies, ss.Latencies = nil, nil
	if !reflect.DeepEqual(ds, ss) {
		t.Fatalf("device stats diverge:\ndirect %+v\nserved %+v", ds, ss)
	}
	if a, b := devDirect.FTL().Stats(), devServed.FTL().Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("ftl stats diverge:\ndirect %+v\nserved %+v", a, b)
	}
	if st := srv.Stats(); st.Rejected != 0 {
		t.Fatalf("replay rejected %d requests", st.Rejected)
	}
}

// TestDrainUnderLoad is the second acceptance check: shutting down mid-burst
// answers every frame the server accepted — nothing in flight is dropped, and
// every response reaches the client before the connection closes.
func TestDrainUnderLoad(t *testing.T) {
	dev := testDevice(t)
	srv := New(dev, Config{MaxInFlight: 8, MaxPerConn: 4, Pace: 0.3})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const conns = 3
	var clientGot atomic.Uint64
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			writeDone := make(chan struct{})
			go func() {
				defer close(writeDone)
				var buf []byte
				for i := uint64(1); ; i++ {
					lpn := int64((i*uint64(conns) + uint64(ci)) % 64)
					buf, _ = AppendFrame(buf[:0], Frame{Op: OpWrite, ID: i, LPN: lpn, Payload: []byte("drain-load")})
					if _, err := nc.Write(buf); err != nil {
						return // server closed its side
					}
				}
			}()
			for {
				if _, _, err := ReadResponse(nc); err != nil {
					break
				}
				clientGot.Add(1)
			}
			<-writeDone
		}(ci)
	}

	// Let the burst get going, then pull the plug.
	for srv.Stats().Responses < 20 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Accepted == 0 {
		t.Fatal("no load reached the server")
	}
	if st.Responses != st.Accepted {
		t.Fatalf("dropped in-flight requests: accepted %d, responded %d", st.Accepted, st.Responses)
	}
	if got := clientGot.Load(); got != st.Accepted {
		t.Fatalf("clients received %d responses, server accepted %d", got, st.Accepted)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight after drain: %d", st.InFlight)
	}
}
