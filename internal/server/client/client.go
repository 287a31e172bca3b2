// Package client is the pipelining Go client for the block service in
// internal/server: many requests may be in flight on one connection, a
// background reader demultiplexes responses by request id, and synchronous
// convenience wrappers (Read/Write/Trim/Ping/Flush/Stat) cover the common
// ops. Start/Wait expose the asynchronous form the load generator uses.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"superfast/internal/ftl"
	"superfast/internal/server"
	"superfast/internal/telemetry"
)

// Terminal connection errors. Every call that was in flight when the
// connection died resolves with an error wrapping one of these, so callers
// (the volume layer's replica retry, a load generator's accounting) can
// classify the failure with errors.Is instead of string matching.
var (
	// ErrConnLost marks a connection that died underneath the client — a
	// read, write or decode error on the socket. In-flight requests may or
	// may not have reached the device; reads are safe to retry elsewhere.
	ErrConnLost = errors.New("client: connection lost")
	// ErrClosed marks a connection the caller closed.
	ErrClosed = errors.New("client: closed")
)

// Client is one connection to a block-service server. Safe for concurrent
// use: requests interleave on the wire in Start order, responses resolve in
// whatever order the server completes them.
type Client struct {
	nc net.Conn
	w  *server.ConnWriter // batches frames onto the socket in Start order

	pmu     sync.Mutex
	pending map[uint64]chan server.Response
	nextID  uint64
	tenant  uint16 // stamped onto data frames when nonzero (SetTenant)
	err     error  // terminal connection error, set once
	closed  bool

	// led, when set, receives one HopClient record per traced frame sent:
	// the wall-clock time the frame spent waiting for the connection's write
	// lock (pipeline contention) plus encoding it into the pending buffer.
	// The socket write happens afterwards, off the caller.
	led *telemetry.Ledger

	readerDone chan struct{}
}

// Dial connects to a block-service server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(nc), nil
}

// New wraps an established connection. The client owns nc and closes it.
func New(nc net.Conn) *Client {
	c := &Client{
		nc:         nc,
		pending:    make(map[uint64]chan server.Response),
		readerDone: make(chan struct{}),
	}
	// A socket write error surfaces on the writer's goroutine, after Start
	// returned: fail the connection there so every in-flight call resolves.
	c.w = server.NewConnWriter(nc, func(err error) {
		c.fail(fmt.Errorf("%w: %w", ErrConnLost, err))
	})
	go c.readLoop()
	return c
}

// Close tears the connection down. In-flight calls fail with the connection
// error; frames not yet written are dropped. Safe to call more than once.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	err := c.nc.Close()
	c.w.Close()
	<-c.readerDone
	return err
}

// Err returns the terminal connection error, or nil while the connection is
// healthy.
func (c *Client) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.err
}

// SetLedger attaches (or, with nil, detaches) a hop ledger. For every frame
// sent with FlagTrace and a nonzero trace ID, Start records a HopClient
// entry timing, on the wall clock, the wait for the connection's write lock
// plus the frame's encoding. The socket write itself is batched onto the
// writer goroutine and is not part of the hop. Call before issuing traced
// requests.
func (c *Client) SetLedger(l *telemetry.Ledger) {
	c.pmu.Lock()
	c.led = l
	c.pmu.Unlock()
}

// Hello pings the server and returns the capability tokens it advertises in
// the PING response payload (e.g. server.TraceCap when the peer accepts the
// trace extension). A plain v1 peer returns an empty list.
func (c *Client) Hello() ([]string, error) {
	r, err := c.Do(server.Frame{Op: server.OpPing})
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return strings.Fields(string(r.Payload)), nil
}

// SupportsTrace reports whether the peer advertised the trace extension.
func (c *Client) SupportsTrace() (bool, error) { return c.supports(server.TraceCap) }

// SupportsTenant reports whether the peer advertised tenant namespaces.
func (c *Client) SupportsTenant() (bool, error) { return c.supports(server.TenantCap) }

// SupportsFault reports whether the peer accepts fault-injection commands.
func (c *Client) SupportsFault() (bool, error) { return c.supports(server.FaultCap) }

func (c *Client) supports(token string) (bool, error) {
	caps, err := c.Hello()
	if err != nil {
		return false, err
	}
	for _, tok := range caps {
		if tok == token {
			return true, nil
		}
	}
	return false, nil
}

// SetTenant stamps every subsequent data frame (READ/WRITE/TRIM) with the
// tenant extension for the 1-based tenant id; 0 restores untenanted frames.
// The peer must have advertised server.TenantCap (see SupportsTenant).
func (c *Client) SetTenant(id uint16) {
	c.pmu.Lock()
	c.tenant = id
	c.pmu.Unlock()
}

// Fault sends one fault-injection command and decodes the report. The peer
// must be serving with fault injection enabled (see SupportsFault); a peer
// with faults disabled answers StatusBadRequest, surfaced as the error.
func (c *Client) Fault(req server.FaultRequest) (server.FaultReport, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return server.FaultReport{}, err
	}
	r, err := c.Do(server.Frame{Op: server.OpFault, Payload: payload})
	if err != nil {
		return server.FaultReport{}, err
	}
	if err := r.Err(); err != nil {
		return server.FaultReport{}, err
	}
	var rep server.FaultReport
	if err := json.Unmarshal(r.Payload, &rep); err != nil {
		return server.FaultReport{}, fmt.Errorf("client: fault report: %w", err)
	}
	return rep, nil
}

// Call is one in-flight request.
type Call struct {
	resp chan server.Response
	c    *Client
}

// Wait blocks until the response arrives or the connection dies.
func (call *Call) Wait() (server.Response, error) {
	r, ok := <-call.resp
	if !ok {
		return server.Response{}, call.c.Err()
	}
	return r, nil
}

// Start sends one request without waiting for its response. The frame's ID
// is assigned by the client; Seq/Arrival/Flags pass through untouched, so a
// sequenced replay stamps them before calling Start.
func (c *Client) Start(f server.Frame) (*Call, error) {
	ch := make(chan server.Response, 1)
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		return nil, err
	}
	c.nextID++
	f.ID = c.nextID
	c.pending[f.ID] = ch
	led := c.led
	if c.tenant != 0 && !f.Tenanted() {
		switch f.Op {
		case server.OpRead, server.OpWrite, server.OpTrim:
			f.Flags |= server.FlagTenant
			f.Tenant = c.tenant
		}
	}
	c.pmu.Unlock()

	traced := led != nil && f.Traced() && f.Trace != 0
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	err := c.w.WriteFrame(f)
	if traced && err == nil {
		led.Record(telemetry.HopRecord{
			Trace: f.Trace, Hop: telemetry.HopClient, Parent: telemetry.HopNone,
			Leg: f.Leg, Seq: f.Seq, LPN: f.LPN,
			SimTS: -1, WallNS: time.Since(t0).Nanoseconds(),
		})
	}
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, f.ID)
		c.pmu.Unlock()
		// An encoding error is the caller's frame, not the connection; only
		// socket errors are terminal.
		if !errors.Is(err, server.ErrFrameSize) && !errors.Is(err, server.ErrBadFrame) {
			err = fmt.Errorf("%w: %w", ErrConnLost, err)
			c.fail(err)
		}
		return nil, err
	}
	return &Call{resp: ch, c: c}, nil
}

// Do sends one request and waits for its response.
func (c *Client) Do(f server.Frame) (server.Response, error) {
	call, err := c.Start(f)
	if err != nil {
		return server.Response{}, err
	}
	return call.Wait()
}

// Read fetches one logical page. A non-OK status surfaces as the error; the
// response carries the page data and simulated latency.
func (c *Client) Read(lpn int64) (server.Response, error) {
	r, err := c.Do(server.Frame{Op: server.OpRead, LPN: lpn})
	if err != nil {
		return r, err
	}
	return r, r.Err()
}

// Write stores data at one logical page with a placement hint.
func (c *Client) Write(lpn int64, data []byte, hint ftl.Hint) (server.Response, error) {
	r, err := c.Do(server.Frame{Op: server.OpWrite, LPN: lpn, Payload: data, Hint: hint})
	if err != nil {
		return r, err
	}
	return r, r.Err()
}

// Trim discards one logical page.
func (c *Client) Trim(lpn int64) (server.Response, error) {
	r, err := c.Do(server.Frame{Op: server.OpTrim, LPN: lpn})
	if err != nil {
		return r, err
	}
	return r, r.Err()
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	r, err := c.Do(server.Frame{Op: server.OpPing})
	if err != nil {
		return err
	}
	return r.Err()
}

// Flush is the pipeline barrier: it resolves once every request sent before
// it on this connection has been answered.
func (c *Client) Flush() error {
	r, err := c.Do(server.Frame{Op: server.OpFlush})
	if err != nil {
		return err
	}
	return r.Err()
}

// Stat fetches and decodes the server's statistics snapshot.
func (c *Client) Stat() (server.StatSnapshot, error) {
	r, err := c.Do(server.Frame{Op: server.OpStat})
	if err != nil {
		return server.StatSnapshot{}, err
	}
	if err := r.Err(); err != nil {
		return server.StatSnapshot{}, err
	}
	var snap server.StatSnapshot
	if err := json.Unmarshal(r.Payload, &snap); err != nil {
		return server.StatSnapshot{}, fmt.Errorf("client: stat payload: %w", err)
	}
	return snap, nil
}

// readLoop demultiplexes responses until the connection dies, then fails
// every pending call.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		resp, _, err := server.ReadResponse(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %w", ErrConnLost, err))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.pmu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// fail records the terminal error once and wakes every pending call.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.pmu.Unlock()
}
