package volume

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/prng"
	"superfast/internal/server"
	"superfast/internal/server/client"
)

// startProxy serves a volume's wire frontend on a loopback listener.
func startProxy(t testing.TB, v *Volume) (*Proxy, string) {
	t.Helper()
	p := NewProxy(v, ProxyConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return p, ln.Addr().String()
}

func TestProxyBasics(t *testing.T) {
	v, _ := startCluster(t, 3, server.Config{}, Config{Stripe: 2})
	p, addr := startProxy(t, v)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if r, err := c.Write(7, []byte("through-the-proxy"), ftl.HintSmall); err != nil || r.Status != server.StatusOK {
		t.Fatalf("write: %v %v", err, r.Status)
	}
	r, err := c.Read(7)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.HasPrefix(r.Payload, []byte("through-the-proxy")) {
		t.Fatalf("read %q", r.Payload[:20])
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := c.Trim(7); err != nil {
		t.Fatalf("trim: %v", err)
	}

	// An unmodified client decodes the cluster STAT as a server snapshot.
	snap, err := c.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if snap.Capacity != v.Space() || snap.PageSize != v.PageSize() {
		t.Fatalf("stat capacity %d/pagesize %d, want %d/%d", snap.Capacity, snap.PageSize, v.Space(), v.PageSize())
	}
	if snap.Server.Conns != 1 {
		t.Fatalf("frontend conns %d, want 1", snap.Server.Conns)
	}
	if snap.Device.Writes != 1 || snap.Device.Reads != 1 || snap.Device.Trims != 1 {
		t.Fatalf("merged device counters %+v", snap.Device)
	}

	// A sequenced frame against an unsequenced volume is refused.
	if r, err := c.Do(server.Frame{Op: server.OpWrite, LPN: 0, Payload: []byte("x"), Flags: server.FlagSequenced}); err != nil || r.Status != server.StatusBadRequest {
		t.Fatalf("mismatched sequenced flag: %v %v", err, r.Status)
	}
	// An out-of-range LPN is a BadRequest, not a dead connection.
	if r, err := c.Do(server.Frame{Op: server.OpRead, LPN: v.Space() + 5}); err != nil || r.Status != server.StatusBadRequest {
		t.Fatalf("out-of-range: %v %v", err, r.Status)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after bad request: %v", err)
	}
	if got := p.Stats(); got.Accepted == 0 || got.Rejected == 0 {
		t.Fatalf("proxy stats %+v", got)
	}
}

// traceOp is one deterministic replay operation.
type traceOp struct {
	op      server.Op
	lpn     int64
	payload []byte
}

// buildTrace generates a deterministic op mix over [0, span).
func buildTrace(n int, span int64, seed uint64) []traceOp {
	src := prng.New(seed, 0x7e17)
	ops := make([]traceOp, n)
	for i := range ops {
		lpn := int64(src.Intn(int(span)))
		switch r := src.Float64(); {
		case r < 0.55:
			ops[i] = traceOp{op: server.OpWrite, lpn: lpn,
				payload: []byte(fmt.Sprintf("replay-%d-lpn-%d", i, lpn))}
		case r < 0.90:
			ops[i] = traceOp{op: server.OpRead, lpn: lpn}
		default:
			ops[i] = traceOp{op: server.OpTrim, lpn: lpn}
		}
	}
	return ops
}

// replaySequenced replays the trace against addr over conns pipelined
// connections, stamping dense global tickets, and returns each op's response
// (status + payload) plus a final sequenced readback of every page in span.
func replaySequenced(t *testing.T, addr string, ops []traceOp, conns int, span int64) ([]server.Response, [][]byte) {
	t.Helper()
	cs := make([]*client.Client, conns)
	for i := range cs {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	calls := make([]*client.Call, len(ops))
	for i, op := range ops {
		f := server.Frame{
			Op: op.op, LPN: op.lpn, Payload: op.payload,
			Flags: server.FlagSequenced, Seq: uint64(i),
		}
		call, err := cs[i%conns].Start(f)
		if err != nil {
			t.Fatalf("start op %d: %v", i, err)
		}
		calls[i] = call
	}
	resps := make([]server.Response, len(ops))
	for i, call := range calls {
		r, err := call.Wait()
		if err != nil {
			t.Fatalf("wait op %d: %v", i, err)
		}
		resps[i] = r
	}
	// Final readback continues the dense ticket space on one connection.
	final := make([][]byte, span)
	seq := uint64(len(ops))
	for lpn := int64(0); lpn < span; lpn++ {
		r, err := cs[0].Do(server.Frame{Op: server.OpRead, LPN: lpn, Flags: server.FlagSequenced, Seq: seq})
		seq++
		if err != nil {
			t.Fatalf("readback %d: %v", lpn, err)
		}
		if r.Status == server.StatusOK {
			final[lpn] = r.Payload
		}
	}
	return resps, final
}

// TestShardedReplayMatchesDirect is the determinism acceptance test: the
// same sequenced trace replayed through a 3-backend sharded volume and
// against a single direct device must produce byte-identical read payloads
// op for op, and a byte-identical final image.
func TestShardedReplayMatchesDirect(t *testing.T) {
	v, _ := startCluster(t, 3, server.Config{Sequenced: true}, Config{Stripe: 4, Sequenced: true})
	_, volAddr := startProxy(t, v)

	direct := startBackend(t, server.Config{Sequenced: true})
	dc, err := client.Dial(direct.addr)
	if err != nil {
		t.Fatal(err)
	}
	dsnap, err := dc.Stat()
	dc.Close()
	if err != nil {
		t.Fatal(err)
	}

	span := v.Space()
	if dsnap.Capacity < span {
		span = dsnap.Capacity
	}
	if span > 128 {
		span = 128
	}
	ops := buildTrace(600, span, 42)

	volResps, volFinal := replaySequenced(t, volAddr, ops, 2, span)
	dirResps, dirFinal := replaySequenced(t, direct.addr, ops, 2, span)

	for i := range ops {
		if volResps[i].Status != dirResps[i].Status {
			t.Fatalf("op %d (%v lpn %d): volume %v, direct %v",
				i, ops[i].op, ops[i].lpn, volResps[i].Status, dirResps[i].Status)
		}
		// Error payloads embed shard-local LPNs and legitimately differ;
		// data payloads must match byte for byte.
		if ops[i].op == server.OpRead && volResps[i].Status == server.StatusOK &&
			!bytes.Equal(volResps[i].Payload, dirResps[i].Payload) {
			t.Fatalf("op %d: read payloads diverge (lpn %d)", i, ops[i].lpn)
		}
	}
	for lpn := range volFinal {
		if !bytes.Equal(volFinal[lpn], dirFinal[lpn]) {
			t.Fatalf("final image diverges at lpn %d", lpn)
		}
	}
}

// TestShardedReplayDeterministic: the same trace through two fresh sharded
// clusters produces identical per-backend device statistics — the sequenced
// scatter itself is reproducible, not just the data.
func TestShardedReplayDeterministic(t *testing.T) {
	run := func() ([]server.Response, []uint64) {
		v, _ := startCluster(t, 3, server.Config{Sequenced: true}, Config{Stripe: 4, Sequenced: true})
		_, addr := startProxy(t, v)
		span := v.Space()
		if span > 96 {
			span = 96
		}
		ops := buildTrace(400, span, 7)
		resps, _ := replaySequenced(t, addr, ops, 3, 0)
		snap := v.ClusterStat()
		var reqs []uint64
		for _, b := range snap.Backends {
			reqs = append(reqs, b.Snap.Device.Requests, b.Snap.Device.Writes, b.Snap.Device.Reads, b.Snap.FTL.GCWrites)
		}
		return resps, reqs
	}
	r1, s1 := run()
	r2, s2 := run()
	for i := range r1 {
		if r1[i].Status != r2[i].Status || !bytes.Equal(r1[i].Payload, r2[i].Payload) ||
			r1[i].Latency != r2[i].Latency {
			t.Fatalf("op %d diverges between runs", i)
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("per-backend counter %d diverges: %d vs %d", i, s1[i], s2[i])
		}
	}
}

// TestVolumeDrainUnderLoad: shutting the proxy down under a full write
// pipeline answers every in-flight request (OK or Rejected — none hang, none
// vanish), returns cleanly, and leaves the backends healthy.
func TestVolumeDrainUnderLoad(t *testing.T) {
	v, bks := startCluster(t, 3, server.Config{}, Config{Stripe: 2})
	p := NewProxy(v, ProxyConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- p.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A completed write up front guarantees lpn 0 is mapped for the
	// post-drain volume probe.
	if r, werr := c.Write(0, []byte("pre-drain"), ftl.HintNone); werr != nil || r.Status != server.StatusOK {
		t.Fatalf("pre-drain write: %v %v", werr, r.Status)
	}

	const n = 512
	calls := make([]*client.Call, 0, n)
	started, produced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < n; i++ {
			call, err := c.Start(server.Frame{
				Op: server.OpWrite, LPN: int64(i) % v.Space(),
				Payload: []byte(fmt.Sprintf("drain-%d", i)),
			})
			if err != nil {
				break // the drained proxy closed the connection
			}
			calls = append(calls, call)
			if i == 64 {
				close(started)
			}
		}
		if len(calls) <= 64 {
			close(started)
		}
	}()

	<-started
	time.Sleep(50 * time.Millisecond) // let the proxy answer a batch first
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Start only queues frames, so the producer may still be appending to
	// calls; it stops once the drained proxy closes the connection.
	select {
	case <-produced:
	case <-time.After(20 * time.Second):
		t.Fatal("Start hung through proxy drain")
	}
	var ok, rejected, failed int
	deadline := time.After(20 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, call := range calls {
			r, err := call.Wait()
			switch {
			case err != nil:
				failed++ // connection closed under the pipeline — typed, not hung
				if !errors.Is(err, client.ErrConnLost) {
					t.Errorf("unexpected wait error: %v", err)
				}
			case r.Status == server.StatusOK:
				ok++
			case r.Status == server.StatusRejected:
				rejected++
			default:
				t.Errorf("unexpected drain status %v", r.Status)
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("calls hung through proxy drain")
	}
	if ok == 0 {
		t.Fatal("no request completed before the drain")
	}
	t.Logf("drain: %d ok, %d rejected, %d conn-lost", ok, rejected, failed)

	// The backends survive the frontend's death and the volume stays usable.
	for i, b := range bks {
		cc, err := client.Dial(b.addr)
		if err != nil {
			t.Fatalf("backend %d dead after drain: %v", i, err)
		}
		if err := cc.Ping(); err != nil {
			t.Fatalf("backend %d ping: %v", i, err)
		}
		cc.Close()
	}
	if r, err := v.Read(0); err != nil || r.Status != server.StatusOK {
		t.Fatalf("volume unusable after proxy drain: %v %v", err, r.Status)
	}
}
