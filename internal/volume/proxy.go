package volume

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"superfast/internal/server"
)

// Proxy serves the block-service wire protocol over a Volume: clients speak
// to it exactly as they would to one ftlserve backend, and it scatters their
// requests across the shard set. STAT answers with the merged cluster
// snapshot (a superset of a single server's), so unmodified clients decode
// it.
type Proxy struct {
	v   *Volume
	cfg ProxyConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	connWG   sync.WaitGroup

	connsNow  atomic.Int64
	connsEver atomic.Uint64
	accepted  atomic.Uint64
	responses atomic.Uint64
	rejected  atomic.Uint64
}

// ProxyConfig parameterizes the proxy.
type ProxyConfig struct {
	// MaxPerConn caps one connection's in-flight requests (default 64),
	// bounding the per-connection response buffer.
	MaxPerConn int
}

// NewProxy wraps a volume. The caller owns the volume's lifetime.
func NewProxy(v *Volume, cfg ProxyConfig) *Proxy {
	if cfg.MaxPerConn <= 0 {
		cfg.MaxPerConn = 64
	}
	return &Proxy{v: v, cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Volume returns the proxied volume.
func (p *Proxy) Volume() *Volume { return p.v }

// Stats returns the proxy's serving-layer counters (the frontend view; each
// backend keeps its own).
func (p *Proxy) Stats() server.ServerStats {
	return server.ServerStats{
		Conns:     p.connsNow.Load(),
		ConnsEver: p.connsEver.Load(),
		Accepted:  p.accepted.Load(),
		Responses: p.responses.Load(),
		Rejected:  p.rejected.Load(),
	}
}

// Serve accepts connections on ln until Shutdown closes it.
func (p *Proxy) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("volume: proxy already shut down")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			draining := p.draining
			p.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		p.startConn(nc)
	}
}

func (p *Proxy) startConn(nc net.Conn) {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		nc.Close()
		return
	}
	p.conns[nc] = struct{}{}
	p.connWG.Add(1)
	p.mu.Unlock()
	p.connsNow.Add(1)
	p.connsEver.Add(1)
	c := &proxyConn{
		p:    p,
		nc:   nc,
		w:    server.NewConnWriter(nc, nil),
		jobs: make(chan proxyJob, p.cfg.MaxPerConn),
	}
	c.cond = sync.NewCond(&c.lmu)
	go c.run()
}

func (p *Proxy) forgetConn(nc net.Conn) {
	p.mu.Lock()
	delete(p.conns, nc)
	p.mu.Unlock()
	p.connsNow.Add(-1)
	p.connWG.Done()
}

// Shutdown drains the proxy: stop accepting, stop reading request frames,
// answer everything already read (in-flight requests run to completion,
// later ones get StatusRejected), flush responses, close connections. The
// backends stay up — the caller owns the volume.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	ln := p.ln
	conns := make([]net.Conn, 0, len(p.conns))
	for nc := range p.conns {
		conns = append(conns, nc)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		p.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		for nc := range p.conns {
			nc.Close()
		}
		p.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// proxyConn mirrors the server's connection lifecycle: a reader admitting
// frames, a pool of workers completing volume calls, and the shared
// ConnWriter batching responses onto the socket. All of them live as long
// as the connection.
type proxyConn struct {
	p    *Proxy
	nc   net.Conn
	w    *server.ConnWriter
	jobs chan proxyJob // started calls; never full, in-flight is capped at MaxPerConn

	lmu      sync.Mutex
	cond     *sync.Cond
	inFlight int

	// The worker pool grows on demand up to MaxPerConn: a call is waiting
	// on its backends, so a worker parks per outstanding call. workers is
	// touched only by the reader; idle counts workers parked on jobs.
	workers int
	idle    atomic.Int64
	pool    sync.WaitGroup
}

// proxyJob is one started volume call awaiting completion.
type proxyJob struct {
	id uint64
	ca *Call
}

func (c *proxyConn) run() {
	defer c.p.forgetConn(c.nc)
	c.reader()
	close(c.jobs)
	c.pool.Wait()
	c.w.Close()
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.CloseWrite()
		c.nc.SetReadDeadline(time.Now().Add(time.Second))
		buf := make([]byte, 4096)
		for {
			if _, err := c.nc.Read(buf); err != nil {
				break
			}
		}
	}
	c.nc.Close()
}

func (c *proxyConn) reader() {
	p := c.p
	v := p.v
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		f, _, err := server.ReadFrame(br)
		if err != nil {
			return
		}
		p.accepted.Add(1)
		switch f.Op {
		case server.OpPing:
			// Advertise the trace extension like a backend would, so clients
			// stamp trace context toward the proxy too.
			c.respond(server.Response{Status: server.StatusOK, ID: f.ID, Payload: []byte(server.TraceCap)})
		case server.OpStat:
			c.respond(p.statResponse(f.ID))
		case server.OpFlush:
			// Pipeline barrier: this connection's in-flight requests first,
			// then every backend pipeline.
			c.waitIdle()
			if err := v.Flush(); err != nil {
				c.respond(server.Response{Status: server.StatusInternal, ID: f.ID, Payload: []byte(err.Error())})
				continue
			}
			c.respond(server.Response{Status: server.StatusOK, ID: f.ID})
		case server.OpRead, server.OpWrite, server.OpTrim:
			if f.Sequenced() != v.cfg.Sequenced {
				c.respond(server.Response{
					Status: server.StatusBadRequest, ID: f.ID,
					Payload: []byte(fmt.Sprintf("sequenced flag %v but volume sequenced=%v", f.Sequenced(), v.cfg.Sequenced)),
				})
				continue
			}
			p.mu.Lock()
			draining := p.draining
			p.mu.Unlock()
			if draining {
				p.rejected.Add(1)
				// A rejected sequenced ticket still advances the global
				// cursor, or the chain behind it wedges.
				v.SkipSeq(f.Seq)
				c.respond(server.Response{Status: server.StatusRejected, ID: f.ID, Payload: []byte("volume: draining")})
				continue
			}
			c.acquireLocal()
			ca, err := c.startOp(f)
			if err != nil {
				c.releaseLocal()
				p.rejected.Add(1)
				c.respond(server.Response{Status: server.StatusBadRequest, ID: f.ID, Payload: []byte(err.Error())})
				continue
			}
			c.dispatch(proxyJob{id: f.ID, ca: ca})
		}
	}
}

// startOp maps one wire frame onto the volume. In sequenced mode the call
// blocks until the frame's global ticket is admitted — per-connection seq
// must therefore ascend, exactly as on a sequenced backend. An invalid LPN
// consumes the ticket (the volume advances its cursor either way).
func (c *proxyConn) startOp(f server.Frame) (*Call, error) {
	v := c.p.v
	// Pass the client's trace context through: the volume's HopProxy records
	// then point back at the hop that sent the frame.
	tr := TraceRef{ID: f.Trace, Parent: f.ParentHop}
	switch f.Op {
	case server.OpRead:
		return v.StartRead(f.LPN, f.Seq, f.Arrival, tr)
	case server.OpWrite:
		return v.StartWrite(f.LPN, f.Payload, f.Hint, f.Seq, f.Arrival, tr)
	default:
		return v.StartTrim(f.LPN, f.Seq, f.Arrival, tr)
	}
}

// dispatch hands a started call to the worker pool, adding a worker when
// more calls are queued than workers are parked waiting for one.
func (c *proxyConn) dispatch(j proxyJob) {
	c.jobs <- j
	if c.workers < c.p.cfg.MaxPerConn && int(c.idle.Load()) < len(c.jobs) {
		c.workers++
		c.pool.Add(1)
		go c.worker()
	}
}

// worker completes calls until the reader closes the job queue.
func (c *proxyConn) worker() {
	defer c.pool.Done()
	for {
		c.idle.Add(1)
		j, ok := <-c.jobs
		c.idle.Add(-1)
		if !ok {
			return
		}
		r, err := j.ca.Wait()
		if err != nil {
			r = server.Response{Status: server.StatusInternal, Payload: []byte(err.Error())}
		}
		r.ID = j.id
		c.respond(r)
		c.releaseLocal()
	}
}

// respond queues one response on the connection's writer.
func (c *proxyConn) respond(r server.Response) {
	c.p.responses.Add(1)
	// The only error is the connection's terminal one: the peer is gone and
	// the response is discarded without blocking, as intended.
	_, _ = c.w.WriteResponse(r)
}

func (c *proxyConn) acquireLocal() {
	c.lmu.Lock()
	for c.inFlight >= c.p.cfg.MaxPerConn {
		c.cond.Wait()
	}
	c.inFlight++
	c.lmu.Unlock()
}

func (c *proxyConn) releaseLocal() {
	c.lmu.Lock()
	c.inFlight--
	c.cond.Broadcast()
	c.lmu.Unlock()
}

func (c *proxyConn) waitIdle() {
	c.lmu.Lock()
	for c.inFlight > 0 {
		c.cond.Wait()
	}
	c.lmu.Unlock()
}

func (p *Proxy) statResponse(id uint64) server.Response {
	snap := p.v.ClusterStat()
	// The frontend's own serving counters ride in the merged server block's
	// conns fields so `ftlload` probes see this proxy, not the backend sum,
	// for connection-level numbers.
	snap.Server.Conns = p.connsNow.Load()
	snap.Server.ConnsEver = p.connsEver.Load()
	payload, err := json.Marshal(snap)
	if err != nil {
		return server.Response{Status: server.StatusInternal, ID: id, Payload: []byte(err.Error())}
	}
	return server.Response{Status: server.StatusOK, ID: id, Payload: payload}
}
