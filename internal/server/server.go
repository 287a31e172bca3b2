package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/ssd"
	"superfast/internal/telemetry"
)

// Config parameterizes the block service.
type Config struct {
	// MaxInFlight caps requests between admission and response across all
	// connections (default 256). Beyond it, connection readers stall — the
	// socket stops being read, and TCP backpressure reaches the client.
	MaxInFlight int
	// MaxPerConn caps one connection's in-flight requests (default 64). It
	// also bounds the per-connection response buffer, so server memory is
	// O(conns × MaxPerConn), never O(queued requests).
	MaxPerConn int
	// Deadline bounds a request's admission wait (0 = wait forever). A
	// request that cannot be admitted in time is answered StatusDeadline.
	Deadline time.Duration
	// Sequenced selects deterministic replay mode: every data request must
	// carry FlagSequenced and a Seq ticket, and the server admits tickets
	// into the device in global Seq order — a multi-connection replay then
	// produces bit-identical completions to a single-submitter run. The
	// ticket space must be dense (every Seq in 0..N submitted exactly once);
	// rejected tickets are retired with an empty device submission so the
	// chain cannot wedge.
	Sequenced bool
	// Pace delays each successful response by Pace wall-clock microseconds
	// per simulated microsecond of its latency (1.0 ≈ real device timing,
	// 0 = respond immediately). The admission slot is held through the
	// delay, so paced queue depths behave like a real device's.
	Pace float64
	// Metrics optionally mirrors the server counters into a telemetry
	// registry: srv.conns, srv.conns_total, srv.accepted, srv.responses,
	// srv.rejected, srv.inflight, srv.bytes_in, srv.bytes_out.
	Metrics *telemetry.Metrics
	// Ledger optionally collects per-hop timing records for traced requests
	// (frames carrying FlagTrace with a nonzero trace ID): the wall-clock
	// admission wait plus the device's queue/GC/service split of each
	// completion. Wire the same ledger into the device with SetLedger to also
	// capture GC-step attribution.
	Ledger *telemetry.Ledger
	// Tenants declares per-connection namespaces: tenant i+1 owns an
	// isolated slice of the LPN space, Pages logical pages starting where
	// tenant i's slice ends. A frame carrying the tenant extension is
	// validated against its namespace and rebased into the flat device
	// space; frames without the extension see the flat space unchanged
	// (plain v1 interop). The server advertises TenantCap when at least one
	// tenant is configured. Misconfigured tenants (non-positive Pages, or a
	// total exceeding the device capacity) fail Serve.
	Tenants []Tenant
	// EnableFaults accepts OpFault frames (JSON fault-injection commands —
	// bad-block storms, chip dropouts, power cuts, process death) and
	// advertises FaultCap. Off by default: fault injection is a test/
	// campaign surface, never something to expose to real traffic.
	EnableFaults bool
	// OnFaultDie is invoked (from a handler goroutine, after the response
	// is enqueued) when a "die" fault arrives. The CLI wires its shutdown
	// path here so a campaign can kill one backend mid-workload. Nil
	// rejects "die" faults.
	OnFaultDie func()
}

// Tenant declares one namespace for Config.Tenants.
type Tenant struct {
	// Name labels the tenant in STAT output and telemetry.
	Name string
	// Pages is the namespace size in logical pages (must be positive).
	Pages int64
	// Quota caps the tenant two ways: at most Quota requests in flight
	// through admission (wall clock), and — via the device's SetTenantQuota
	// virtual-time pacing — at most Quota chips kept busy on average on the
	// simulated clock. 0 = no cap, no shaping.
	Quota int
}

// Server is the TCP block service over one ConcurrentDevice.
type Server struct {
	dev *ssd.ConcurrentDevice
	cfg Config
	adm *admission
	// seqBase rebases the wire's dense 0-based Seq tickets onto the device's
	// ticket space, which may have advanced before the server existed (warm
	// fill). Captured once at construction.
	seqBase uint64
	// tenants holds the resolved namespace table (base offsets are the
	// running sum of earlier tenants' Pages). capPayload is the PING
	// capability token list. cfgErr carries a tenant misconfiguration from
	// New to Serve.
	tenants    []tenantState
	capPayload []byte
	cfgErr     error
	dieOnce    sync.Once

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	connWG   sync.WaitGroup

	connsNow   atomic.Int64
	connsEver  atomic.Uint64
	accepted   atomic.Uint64
	responses  atomic.Uint64
	rejected   atomic.Uint64
	bytesIn    atomic.Uint64
	bytesOut   atomic.Uint64
	pacedSlept atomic.Uint64 // total paced wall-µs, for RecorderColumns

	met *serverMetrics
}

// tenantState is one resolved namespace plus its serving counters.
type tenantState struct {
	name  string
	base  int64 // first device LPN of the namespace
	pages int64

	accepted atomic.Uint64
	rejected atomic.Uint64

	// optional telemetry mirrors (srv.tenant.<name>.*)
	mAccepted *telemetry.Counter
	mRejected *telemetry.Counter
	mInflight *telemetry.Gauge
}

// serverMetrics caches the optional telemetry mirrors.
type serverMetrics struct {
	conns     *telemetry.Gauge
	connsEver *telemetry.Counter
	accepted  *telemetry.Counter
	responses *telemetry.Counter
	rejected  *telemetry.Counter
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
}

// New builds a server over the device. The device must outlive the server;
// the server never closes it.
func New(dev *ssd.ConcurrentDevice, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxPerConn <= 0 {
		cfg.MaxPerConn = 64
	}
	s := &Server{
		dev:   dev,
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInFlight),
		conns: make(map[net.Conn]struct{}),
	}
	if cfg.Sequenced {
		s.seqBase = dev.NextTicket()
	}
	if m := cfg.Metrics; m != nil {
		s.met = &serverMetrics{
			conns:     m.Gauge("srv.conns"),
			connsEver: m.Counter("srv.conns_total"),
			accepted:  m.Counter("srv.accepted"),
			responses: m.Counter("srv.responses"),
			rejected:  m.Counter("srv.rejected"),
			bytesIn:   m.Counter("srv.bytes_in"),
			bytesOut:  m.Counter("srv.bytes_out"),
		}
		s.adm.gauge = m.Gauge("srv.inflight")
	}
	s.initTenants()
	caps := TraceCap
	if len(s.tenants) > 0 {
		caps += " " + TenantCap
	}
	if cfg.EnableFaults {
		caps += " " + FaultCap
	}
	s.capPayload = []byte(caps)
	return s
}

// initTenants resolves Config.Tenants into the namespace table, registers
// the per-tenant admission caps and device service quotas, and records any
// misconfiguration for Serve to report.
func (s *Server) initTenants() {
	if len(s.cfg.Tenants) == 0 {
		return
	}
	capacity := s.dev.FTL().Capacity()
	var base int64
	caps := make([]int, len(s.cfg.Tenants))
	s.tenants = make([]tenantState, len(s.cfg.Tenants))
	for i, t := range s.cfg.Tenants {
		if t.Pages <= 0 {
			s.cfgErr = fmt.Errorf("server: tenant %d (%q) has %d pages", i+1, t.Name, t.Pages)
			return
		}
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("tenant-%d", i+1)
		}
		ts := &s.tenants[i]
		ts.name, ts.base, ts.pages = name, base, t.Pages
		if m := s.cfg.Metrics; m != nil {
			ts.mAccepted = m.Counter("srv.tenant." + name + ".accepted")
			ts.mRejected = m.Counter("srv.tenant." + name + ".rejected")
			ts.mInflight = m.Gauge("srv.tenant." + name + ".inflight")
		}
		caps[i] = t.Quota
		if t.Quota > 0 {
			s.dev.SetTenantQuota(i+1, t.Quota)
		}
		base += t.Pages
	}
	if base > capacity {
		s.cfgErr = fmt.Errorf("server: tenants claim %d pages, device has %d", base, capacity)
		return
	}
	s.adm.setTenantCaps(caps)
	for i := range s.tenants {
		s.adm.tenGauge[i] = s.tenants[i].mInflight
	}
}

// RecorderColumns returns the serving-layer columns the server can
// contribute to a flight recorder (see ssd.SetRecorderExtra): open
// connections, admission in-flight, accepted and rejected totals. Serving
// columns sample live wall-clock state, so unlike the device columns they
// are not byte-deterministic across runs.
func RecorderColumns() []string {
	return []string{"srv_conns", "srv_inflight", "srv_accepted", "srv_rejected"}
}

// RecorderSampler returns the fill function matching RecorderColumns.
func (s *Server) RecorderSampler() func(vals []float64) {
	return func(vals []float64) {
		vals[0] = float64(s.connsNow.Load())
		vals[1] = float64(s.adm.load())
		vals[2] = float64(s.accepted.Load())
		vals[3] = float64(s.rejected.Load())
	}
}

// Stats returns the serving-layer counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Conns:     s.connsNow.Load(),
		ConnsEver: s.connsEver.Load(),
		Accepted:  s.accepted.Load(),
		Responses: s.responses.Load(),
		Rejected:  s.rejected.Load(),
		InFlight:  int64(s.adm.load()),
		BytesIn:   s.bytesIn.Load(),
		BytesOut:  s.bytesOut.Load(),
	}
	for i := range s.tenants {
		t := &s.tenants[i]
		st.Tenants = append(st.Tenants, TenantStats{
			Name:     t.name,
			Pages:    t.pages,
			Quota:    s.cfg.Tenants[i].Quota,
			Accepted: t.accepted.Load(),
			Rejected: t.rejected.Load(),
		})
	}
	return st
}

// ListenAndServe listens on addr and serves until Shutdown. The second
// return of Listen-style helpers is not needed here; use Serve with your own
// listener to learn the bound address first.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. It returns nil
// after a graceful shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	if s.cfgErr != nil {
		ln.Close()
		return s.cfgErr
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn registers nc and launches its reader/writer pair.
func (s *Server) startConn(nc net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[nc] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.connsNow.Add(1)
	s.connsEver.Add(1)
	if s.met != nil {
		s.met.conns.Add(1)
		s.met.connsEver.Inc()
	}
	c := &conn{
		srv:  s,
		nc:   nc,
		w:    NewConnWriter(nc, nil),
		work: make(chan Frame, s.cfg.MaxPerConn),
	}
	c.cond = sync.NewCond(&c.lmu)
	go c.run()
}

// forgetConn unregisters nc after its goroutines exit.
func (s *Server) forgetConn(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.connsNow.Add(-1)
	if s.met != nil {
		s.met.conns.Add(-1)
	}
	s.connWG.Done()
}

// Shutdown gracefully drains the server: stop accepting, stop reading
// request frames, answer everything already read (in-flight requests run to
// completion, unadmitted ones get StatusRejected), flush the responses, then
// close the connections. If ctx expires first the remaining connections are
// closed forcibly and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.adm.drain()
	// Kick every reader out of its blocking frame read; readers see the
	// deadline error with draining set and switch to their drain path.
	for _, nc := range conns {
		nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// conn is one client connection, served by three long-lived goroutines: a
// reader decoding frames and admitting requests, a handler submitting the
// admitted ones to the device in admission order, and the ConnWriter's
// goroutine batching responses onto the socket.
type conn struct {
	srv  *Server
	nc   net.Conn
	w    *ConnWriter
	work chan Frame // admitted frames; never full, in-flight is capped at MaxPerConn

	lmu      sync.Mutex
	cond     *sync.Cond
	inFlight int // local in-flight, capped at MaxPerConn

	// pending counts admitted requests not yet answered: queued for the
	// handler, in the device, or waiting on a paced-delivery timer.
	pending sync.WaitGroup
}

// run executes the connection lifecycle: handler in the background, reader
// in the foreground, then the drain-and-close sequence.
func (c *conn) run() {
	defer c.srv.forgetConn(c.nc)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		c.handler()
	}()
	c.reader()
	// Every accepted frame either responded already or is still pending;
	// wait for them, then flush the responses and stop the writer.
	close(c.work)
	<-handlerDone
	c.pending.Wait()
	c.w.Close()
	// Graceful TCP teardown: FIN our side, then drain whatever the client
	// had in flight toward us so the close cannot RST responses still
	// sitting in the client's receive buffer.
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

// reader decodes frames and dispatches them until the client closes its
// side, a protocol error occurs, or shutdown kicks it out.
func (c *conn) reader() {
	s := c.srv
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		f, n, err := ReadFrame(br)
		s.addBytesIn(uint64(n))
		if err != nil {
			return
		}
		s.addAccepted()
		switch f.Op {
		case OpPing:
			// The payload advertises capability tokens; v1 clients ignore
			// PING payloads, new ones learn which extensions are accepted.
			c.respond(Response{Status: StatusOK, ID: f.ID, Payload: s.capPayload})
		case OpStat:
			c.respond(s.statResponse(f.ID))
		case OpFlush:
			// Pipeline barrier: stall this connection's reads until its
			// in-flight requests have responded, then acknowledge.
			c.waitIdle()
			c.respond(Response{Status: StatusOK, ID: f.ID})
		case OpFault:
			if !s.cfg.EnableFaults {
				c.respond(Response{
					Status: StatusBadRequest, ID: f.ID,
					Payload: []byte("fault injection disabled"),
				})
				continue
			}
			// Handled inline on the reader: fault application must be
			// ordered against this connection's later frames (a campaign
			// injects, then immediately sends the traffic that should see
			// the fault).
			c.respond(s.handleFault(f))
		case OpRead, OpWrite, OpTrim:
			if f.Sequenced() != s.cfg.Sequenced {
				c.respond(Response{
					Status: StatusBadRequest, ID: f.ID,
					Payload: []byte(fmt.Sprintf("sequenced flag %v but server sequenced=%v", f.Sequenced(), s.cfg.Sequenced)),
				})
				continue
			}
			if msg, ok := s.rebaseTenant(&f); !ok {
				s.rejected.Add(1)
				if s.met != nil {
					s.met.rejected.Inc()
				}
				if s.cfg.Sequenced {
					// The rejected ticket still occupies a position in the
					// dense replay chain: retire it at admission and at the
					// device so later tickets cannot wedge behind it.
					s.adm.retire(f.Seq)
					go s.dev.SubmitBatchTicket(s.seqBase+f.Seq, nil)
				}
				c.respond(Response{Status: StatusBadRequest, ID: f.ID, Payload: []byte(msg)})
				continue
			}
			c.acquireLocal()
			var deadline time.Time
			if s.cfg.Deadline > 0 {
				deadline = time.Now().Add(s.cfg.Deadline)
			}
			traced := s.cfg.Ledger != nil && f.Traced() && f.Trace != 0
			var admStart time.Time
			if traced {
				admStart = time.Now()
			}
			aerr := s.adm.acquire(f.Seq, s.cfg.Sequenced, deadline, int(f.Tenant))
			if traced {
				st := StatusOK
				if aerr == errDeadline {
					st = StatusDeadline
				} else if aerr != nil {
					st = StatusRejected
				}
				s.cfg.Ledger.Record(telemetry.HopRecord{
					Trace: f.Trace, Hop: telemetry.HopAdmission, Parent: f.ParentHop,
					Leg: f.Leg, Seq: f.Seq, LPN: f.LPN, Status: byte(st),
					SimTS: -1, WallNS: time.Since(admStart).Nanoseconds(),
				})
			}
			if aerr != nil {
				c.releaseLocal()
				s.rejected.Add(1)
				if s.met != nil {
					s.met.rejected.Inc()
				}
				if t := s.tenant(f.Tenant); t != nil {
					t.rejected.Add(1)
					if t.mRejected != nil {
						t.mRejected.Inc()
					}
				}
				if s.cfg.Sequenced {
					// Retire the ticket at the device so later tickets are
					// not deadlocked behind the rejected one. Asynchronously:
					// the empty submission itself waits for all earlier
					// tickets, which may still be unread behind this frame on
					// this very socket — retiring inline would wedge the
					// reader. If the chain never completes (a client died
					// mid-replay), the goroutine parks until process exit.
					go s.dev.SubmitBatchTicket(s.seqBase+f.Seq, nil)
				}
				status := StatusRejected
				if aerr == errDeadline {
					status = StatusDeadline
				}
				c.respond(Response{Status: status, ID: f.ID, Payload: []byte(aerr.Error())})
				continue
			}
			if t := s.tenant(f.Tenant); t != nil {
				t.accepted.Add(1)
				if t.mAccepted != nil {
					t.mAccepted.Inc()
				}
			}
			c.pending.Add(1)
			c.work <- f
		}
	}
}

// tenant resolves a wire tenant id (1-based, 0 = untenanted) to its state,
// nil when untenanted or unknown.
func (s *Server) tenant(id uint16) *tenantState {
	if id == 0 || int(id) > len(s.tenants) {
		return nil
	}
	return &s.tenants[id-1]
}

// rebaseTenant validates a data frame against its namespace and rebases its
// LPN into the flat device space. Returns ok=false with a client-facing
// message when the tenant is unknown, the server has no tenants configured,
// or the LPN falls outside the namespace. Untenanted frames pass through
// unchanged — but only when the server is not partitioned into tenants:
// mixing flat-space and namespaced writers would alias LPNs.
func (s *Server) rebaseTenant(f *Frame) (string, bool) {
	if !f.Tenanted() {
		if len(s.tenants) > 0 {
			return "server requires tenant extension", false
		}
		return "", true
	}
	t := s.tenant(f.Tenant)
	if t == nil {
		return fmt.Sprintf("unknown tenant %d", f.Tenant), false
	}
	if f.LPN < 0 || f.LPN >= t.pages {
		t.rejected.Add(1)
		if t.mRejected != nil {
			t.mRejected.Inc()
		}
		return fmt.Sprintf("lpn %d outside namespace %q (%d pages)", f.LPN, t.name, t.pages), false
	}
	f.LPN += t.base
	return "", true
}

// handler submits admitted requests to the device one at a time. The device
// serializes submissions under its own lock, so one goroutine per connection
// loses no device parallelism — and, living as long as the connection, it
// grows its stack once instead of once per request.
func (c *conn) handler() {
	for f := range c.work {
		c.handle(f)
	}
}

// handle submits one admitted request to the device and responds — at once,
// or for a paced server from a timer, so paced delays overlap like a real
// device's queue. The admission slot is held until the response is queued.
func (c *conn) handle(f Frame) {
	s := c.srv
	req := ssd.Request{LPN: f.LPN, Arrival: f.Arrival, Trace: f.Trace, Tenant: int(f.Tenant)}
	switch f.Op {
	case OpRead:
		req.Kind = ssd.OpRead
	case OpWrite:
		req.Kind = ssd.OpWrite
		req.Data = f.Payload
		req.Hint = ftl.Hint(f.Hint)
	case OpTrim:
		req.Kind = ssd.OpTrim
	}
	var comp ssd.Completion
	var err error
	if s.cfg.Sequenced {
		comp, err = s.dev.SubmitTicket(s.seqBase+f.Seq, req)
	} else {
		comp, err = s.dev.Submit(req)
	}
	resp := Response{ID: f.ID}
	if s.cfg.Ledger != nil && f.Traced() && f.Trace != 0 {
		s.recordDeviceHops(f, comp, err)
	}
	if err != nil {
		resp.Status = StatusFor(err)
		resp.Payload = []byte(err.Error())
	} else {
		resp.Latency = comp.Latency
		if f.Op == OpRead {
			resp.Payload = comp.Data
		}
		if s.cfg.Pace > 0 {
			us := comp.Latency * s.cfg.Pace
			s.pacedSlept.Add(uint64(us))
			time.AfterFunc(time.Duration(us*float64(time.Microsecond)), func() { c.complete(f, resp) })
			return
		}
	}
	c.complete(f, resp)
}

// complete answers one admitted request and frees its slots.
func (c *conn) complete(f Frame, resp Response) {
	c.respond(resp)
	c.srv.adm.release(int(f.Tenant))
	c.releaseLocal()
	c.pending.Done()
}

// recordDeviceHops splits one completion into the ledger's device hops:
// queue (time between arrival and service start), gc (the blocking-GC share
// of service, writes only), and service (the rest). The three durations sum
// exactly to Completion.Latency — the simulated latency the client observes
// in the response — which the hop-accounting test pins.
func (s *Server) recordDeviceHops(f Frame, comp ssd.Completion, err error) {
	led := s.cfg.Ledger
	base := telemetry.HopRecord{
		Trace: f.Trace, Parent: f.ParentHop, Leg: f.Leg, Seq: f.Seq, LPN: f.LPN,
	}
	if err != nil {
		// Nothing was serviced; one service record carries the error status.
		r := base
		r.Hop = telemetry.HopService
		r.Status = byte(StatusFor(err))
		r.SimTS = -1
		led.Record(r)
		return
	}
	// GCTime is part of Service by construction; clamp anyway so the three
	// hops always sum to Latency even if a model change breaks the invariant.
	gc := comp.GCTime
	if gc > comp.Service {
		gc = comp.Service
	}
	q := base
	q.Hop = telemetry.HopQueue
	q.SimTS = comp.Start - comp.Wait
	q.SimUS = comp.Wait
	led.Record(q)
	if f.Op == OpWrite {
		// Recorded even at zero so every traced write answers "how much GC
		// blocked me" — the cluster breakdown then always covers the hop.
		g := base
		g.Hop = telemetry.HopGC
		g.SimTS = comp.Start
		g.SimUS = gc
		led.Record(g)
	}
	sv := base
	sv.Hop = telemetry.HopService
	sv.SimTS = comp.Start + gc
	sv.SimUS = comp.Service - gc
	led.Record(sv)
}

// respond queues one response on the connection's writer and counts it.
// After a socket error the writer discards it without blocking.
func (c *conn) respond(r Response) {
	c.srv.responses.Add(1)
	if c.srv.met != nil {
		c.srv.met.responses.Inc()
	}
	if n, err := c.w.WriteResponse(r); err == nil {
		c.srv.addBytesOut(uint64(n))
	}
}

// acquireLocal blocks while the connection is at its in-flight cap —
// stalling the reader, which stops draining the socket.
func (c *conn) acquireLocal() {
	c.lmu.Lock()
	for c.inFlight >= c.srv.cfg.MaxPerConn {
		c.cond.Wait()
	}
	c.inFlight++
	c.lmu.Unlock()
}

func (c *conn) releaseLocal() {
	c.lmu.Lock()
	c.inFlight--
	c.cond.Broadcast()
	c.lmu.Unlock()
}

// waitIdle blocks until the connection has no request in flight.
func (c *conn) waitIdle() {
	c.lmu.Lock()
	for c.inFlight > 0 {
		c.cond.Wait()
	}
	c.lmu.Unlock()
}

// statResponse snapshots the device, FTL and server counters. FTL state is
// read under the device's FTL-stage lock, so STAT is safe while submissions
// are in flight.
func (s *Server) statResponse(id uint64) Response {
	var snap StatSnapshot
	snap.Device = s.dev.Stats()
	s.dev.WithFTL(func(f *ftl.FTL) {
		snap.Capacity = f.Capacity()
		snap.PageSize = f.Geometry().PageSize
		snap.FTL = f.Stats()
	})
	snap.WAF = snap.FTL.WAF()
	snap.Chips = s.dev.ChipStats()
	snap.Server = s.Stats()
	payload, err := json.Marshal(snap)
	if err != nil {
		return Response{Status: StatusInternal, ID: id, Payload: []byte(err.Error())}
	}
	return Response{Status: StatusOK, ID: id, Payload: payload}
}

func (s *Server) addBytesIn(n uint64) {
	s.bytesIn.Add(n)
	if s.met != nil {
		s.met.bytesIn.Add(n)
	}
}

func (s *Server) addBytesOut(n uint64) {
	s.bytesOut.Add(n)
	if s.met != nil {
		s.met.bytesOut.Add(n)
	}
}

func (s *Server) addAccepted() {
	s.accepted.Add(1)
	if s.met != nil {
		s.met.accepted.Inc()
	}
}
