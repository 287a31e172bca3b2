package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/pv"
	"superfast/internal/server"
	"superfast/internal/ssd"
	"superfast/internal/telemetry"
)

// startServer spins a real block service on a loopback listener.
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	g := flash.TestGeometry()
	g.BlocksPerPlane = 12
	g.Layers = 12
	p := pv.DefaultParams()
	p.Layers = g.Layers
	p.Strings = g.Strings
	arr := flash.MustNewArray(g, pv.New(p), flash.DefaultECC())
	dcfg := ssd.DefaultConfig()
	dcfg.FTL.Overprovision = 0.25
	dev, err := ssd.NewConcurrent(arr, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	srv := server.New(dev, cfg)
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

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientSugar(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	data := []byte("client page payload")
	wr, err := c.Write(3, data, ftl.HintSmall)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if wr.Status != server.StatusOK {
		t.Fatalf("write status %v", wr.Status)
	}
	rd, err := c.Read(3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(string(rd.Payload), string(data)) {
		t.Fatalf("read %q, want prefix %q", rd.Payload, data)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := c.Trim(3); err != nil {
		t.Fatalf("trim: %v", err)
	}
	// The trimmed page now reads as BAD_REQUEST, surfaced through the error.
	if _, err := c.Read(3); err == nil || !strings.Contains(err.Error(), "BAD_REQUEST") {
		t.Fatalf("read after trim: %v", err)
	}

	snap, err := c.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if snap.Capacity <= 0 || snap.PageSize <= 0 {
		t.Fatalf("stat snapshot %+v", snap)
	}
	// The failed post-trim read never reached the flash, so only the
	// successful one counts.
	if snap.Device.Writes != 1 || snap.Device.Reads != 1 || snap.Device.Trims != 1 {
		t.Fatalf("device counters %+v", snap.Device)
	}
	if snap.Server.Conns != 1 {
		t.Fatalf("server counters %+v", snap.Server)
	}
}

func TestClientPipelining(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)

	const n = 64
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		call, err := c.Start(server.Frame{Op: server.OpWrite, LPN: int64(i % 16), Payload: []byte("pipelined")})
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		calls[i] = call
	}
	for i, call := range calls {
		r, err := call.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if r.Status != server.StatusOK {
			t.Fatalf("call %d: %v", i, r.Status)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("healthy connection reports %v", err)
	}
}

func TestClientClose(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Err(); err == nil {
		t.Fatal("closed client should report an error")
	}
	if _, err := c.Start(server.Frame{Op: server.OpPing}); err == nil {
		t.Fatal("start after close should fail")
	}
	if err := c.Close(); err == nil {
		// Double close surfaces the net.Conn error; both outcomes are fine,
		// it just must not panic or hang.
		t.Log("double close returned nil")
	}
}

func TestClientServerGone(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The connection is gone; calls must fail promptly, not hang.
	if _, err := c.Do(server.Frame{Op: server.OpPing}); err == nil {
		t.Fatal("call against a drained server should fail")
	}
}

func TestClientBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to a closed port should fail")
	}
}

// TestClientConnLostFailsInFlight is the reconnect/error-surfacing
// regression test: a backend that dies with a pipeline of unanswered
// requests must fail every in-flight call promptly with an error wrapping
// ErrConnLost — none may hang, and later Starts must fail the same way.
func TestClientConnLostFailsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- nc
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srvConn := <-accepted

	// Fill a pipeline the server will never answer.
	const inFlight = 32
	calls := make([]*Call, inFlight)
	for i := range calls {
		if calls[i], err = c.Start(server.Frame{Op: server.OpWrite, LPN: int64(i), Payload: []byte("doomed")}); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}

	// The backend dies mid-pipeline.
	srvConn.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, call := range calls {
			_, err := call.Wait()
			if err == nil {
				t.Errorf("call %d: resolved without error on a dead connection", i)
				continue
			}
			if !errors.Is(err, ErrConnLost) {
				t.Errorf("call %d: error %v does not wrap ErrConnLost", i, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight calls hung after the connection died")
	}

	if err := c.Err(); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Err() = %v, want ErrConnLost", err)
	}
	if _, err := c.Start(server.Frame{Op: server.OpPing}); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Start after loss = %v, want ErrConnLost", err)
	}
}

// gatedConn wraps a net.Conn so each Write announces itself on entered and
// then blocks until the test sends on gate. Writes are counted.
type gatedConn struct {
	net.Conn
	entered chan struct{}
	gate    chan struct{}
	writes  atomic.Int64
}

func (g *gatedConn) Write(b []byte) (int, error) {
	g.writes.Add(1)
	g.entered <- struct{}{}
	<-g.gate
	return g.Conn.Write(b)
}

// TestClientCoalescesFrames: frames started while a socket write is in
// progress leave in one batch. One frame is held in the first Write, 31 more
// start behind it, and releasing the gate takes exactly one more Write —
// with the peer decoding all 32 frames in Start order.
func TestClientCoalescesFrames(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	gc := &gatedConn{Conn: local, entered: make(chan struct{}, 8), gate: make(chan struct{})}
	c := New(gc)
	defer c.Close()
	defer close(gc.gate) // never leave the writer parked in Write

	const frames = 32
	got := make(chan server.Frame, frames)
	go func() {
		br := bufio.NewReader(peer)
		for {
			f, _, err := server.ReadFrame(br)
			if err != nil {
				close(got)
				return
			}
			got <- f
		}
	}()

	if _, err := c.Start(server.Frame{Op: server.OpRead, LPN: 0}); err != nil {
		t.Fatal(err)
	}
	<-gc.entered // the first frame is now held inside Write
	for i := 1; i < frames; i++ {
		if _, err := c.Start(server.Frame{Op: server.OpRead, LPN: int64(i)}); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}
	gc.gate <- struct{}{}
	<-gc.entered // the 31 queued frames, as one batch
	gc.gate <- struct{}{}
	for i := 0; i < frames; i++ {
		f, ok := <-got
		if !ok {
			t.Fatalf("peer decoded %d frames, want %d", i, frames)
		}
		if f.ID != uint64(i+1) || f.LPN != int64(i) {
			t.Fatalf("frame %d decoded as id %d lpn %d", i, f.ID, f.LPN)
		}
	}
	if n := gc.writes.Load(); n != 2 {
		t.Fatalf("%d socket writes for %d frames, want 2", n, frames)
	}
}

// failingConn fails every Write once broken is set.
type failingConn struct {
	net.Conn
	mu     sync.Mutex
	broken bool
}

func (f *failingConn) Write(b []byte) (int, error) {
	f.mu.Lock()
	broken := f.broken
	f.mu.Unlock()
	if broken {
		return 0, errors.New("write side died")
	}
	return f.Conn.Write(b)
}

// TestClientWriteSideDiesMidPipeline: a socket write error surfaces after
// Start returned, on the writer's goroutine. It must still fail the
// connection with ErrConnLost and resolve every in-flight call — those
// already on the wire and those queued behind the failed write.
func TestClientWriteSideDiesMidPipeline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srvConn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srvConn.Close()
	fc := &failingConn{Conn: nc}
	c := New(fc)
	defer c.Close()

	// A first half the peer receives but never answers.
	const half = 16
	var calls []*Call
	for i := 0; i < half; i++ {
		call, err := c.Start(server.Frame{Op: server.OpWrite, LPN: int64(i), Payload: []byte("sent")})
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		calls = append(calls, call)
	}
	br := bufio.NewReader(srvConn)
	for i := 0; i < half; i++ {
		if _, _, err := server.ReadFrame(br); err != nil {
			t.Fatalf("peer frame %d: %v", i, err)
		}
	}

	// The write side dies; the second half is queued behind the failure.
	fc.mu.Lock()
	fc.broken = true
	fc.mu.Unlock()
	for i := half; i < 2*half; i++ {
		call, err := c.Start(server.Frame{Op: server.OpWrite, LPN: int64(i), Payload: []byte("doomed")})
		if err != nil {
			if !errors.Is(err, ErrConnLost) {
				t.Fatalf("start %d after write failure: %v, want ErrConnLost", i, err)
			}
			continue
		}
		calls = append(calls, call)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, call := range calls {
			if _, err := call.Wait(); !errors.Is(err, ErrConnLost) {
				t.Errorf("call %d: error %v, want ErrConnLost", i, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight calls hung after the write side died")
	}
	if err := c.Err(); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Err() = %v, want ErrConnLost", err)
	}
	if _, err := c.Start(server.Frame{Op: server.OpPing}); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Start after loss = %v, want ErrConnLost", err)
	}
}

// TestClientCloseIsTyped: calls interrupted by a local Close surface
// ErrClosed, distinguishable from a lost connection.
func TestClientCloseIsTyped(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Err() after close = %v, want ErrClosed", err)
	}
	if errors.Is(c.Err(), ErrConnLost) {
		t.Fatal("local close must not read as a lost connection")
	}
}

// TestClientOversizedFrameNotTerminal: an unencodable frame fails only its
// own call — the connection stays healthy for the pipeline behind it.
func TestClientOversizedFrameNotTerminal(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)
	if _, err := c.Start(server.Frame{
		Op: server.OpWrite, LPN: 1, Payload: make([]byte, server.MaxPayload+1),
	}); err == nil {
		t.Fatal("oversized frame should fail")
	} else if errors.Is(err, ErrConnLost) {
		t.Fatalf("encoding error marked terminal: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after encoding error: %v", err)
	}
}

// TestClientHelloAndTraceLedger: Hello surfaces the server's capability
// tokens, SupportsTrace keys off TraceCap, and a wired ledger records one
// wall-only HopClient entry per traced frame — and nothing for untraced ones.
func TestClientHelloAndTraceLedger(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dialTest(t, addr)

	caps, err := c.Hello()
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	found := false
	for _, tok := range caps {
		if tok == server.TraceCap {
			found = true
		}
	}
	if !found {
		t.Fatalf("capabilities %v lack %q", caps, server.TraceCap)
	}
	if ok, err := c.SupportsTrace(); err != nil || !ok {
		t.Fatalf("SupportsTrace: %v %v", ok, err)
	}

	led := telemetry.NewLedger("ftlload")
	c.SetLedger(led)
	if r, err := c.Write(4, []byte("untraced"), ftl.HintNone); err != nil || r.Status != server.StatusOK {
		t.Fatalf("untraced write: %v %v", err, r.Status)
	}
	if led.Len() != 0 {
		t.Fatalf("untraced frame recorded %d entries", led.Len())
	}
	r, err := c.Do(server.Frame{
		Op: server.OpRead, LPN: 4, Flags: server.FlagTrace,
		Trace: 9, ParentHop: telemetry.HopClient,
	})
	if err != nil || r.Status != server.StatusOK {
		t.Fatalf("traced read: %v %v", err, r.Status)
	}
	recs := led.Records()
	if len(recs) != 1 {
		t.Fatalf("traced frame recorded %d entries, want 1", len(recs))
	}
	hr := recs[0]
	if hr.Hop != telemetry.HopClient || hr.Parent != telemetry.HopNone ||
		hr.Trace != 9 || hr.LPN != 4 || hr.SimTS != -1 || hr.WallNS < 0 || hr.Proc != "ftlload" {
		t.Fatalf("client hop record %+v", hr)
	}
}
