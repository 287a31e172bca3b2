// Package server exports the simulated SSD over TCP: a compact
// length-prefixed binary protocol (READ / WRITE / TRIM / FLUSH / STAT /
// PING) in front of ssd.ConcurrentDevice, with three long-lived goroutines
// per connection (reader, device handler, batching ConnWriter), a shared
// admission controller (global and per-connection
// in-flight caps, backpressure that stalls socket reads instead of buffering
// unboundedly, per-request admission deadlines) and graceful drain on
// shutdown. The matching pipelining client lives in server/client; the CLI
// front ends are cmd/ftlserve and cmd/ftlload.
//
// Wire format (all integers big-endian):
//
//	request frame                      response frame
//	u32  n     length of the rest      u32  n     length of the rest
//	u8   version (= 1)                 u8   version (= 1)
//	u8   opcode                        u8   status
//	u8   flags (bit0: sequenced,       u16  reserved (= 0)
//	            bit1: trace ext,       u64  request id
//	            bit2: tenant ext)      f64  simulated latency, µs
//	u8   hint                          payload [n-20]
//	u64  request id
//	i64  lpn
//	u64  seq (sequenced replay ticket)
//	f64  arrival, simulated µs
//	trace extension [16, present only with flag bit1]
//	tenant extension [8, present only with flag bit2]
//	payload [n-36-ext]
//
// The optional trace extension carries the distributed-tracing context of
// the per-hop latency ledger (see internal/telemetry's Hop taxonomy):
//
//	u64  trace id (0 = untraced)
//	u8   parent hop (Hop value, 0xff = none)
//	u8   replica leg index
//	u16  reserved (= 0)
//	u32  reserved (= 0)
//
// The optional tenant extension scopes the request to a namespace:
//
//	u16  tenant id (1-based index into the server's tenant table)
//	u16  reserved (= 0)
//	u32  reserved (= 0)
//
// A tenant-scoped LPN is relative to the tenant's namespace; the server
// rebases it into the device's flat LPN space and rejects out-of-namespace
// addresses with BAD_REQUEST.
//
// Extensions are negotiated, never assumed: a server that understands one
// advertises the matching capability token (TraceCap, TenantCap, FaultCap)
// in its PING response payload, and clients only set the flag after seeing
// the capability — frames without the flags are byte-identical to plain v1,
// so untraced, untenanted peers interoperate unchanged.
//
// A request's payload is the write data, or — for FAULT, negotiated via
// FaultCap — a JSON fault-injection command (see FaultRequest); it is empty
// for every other opcode. A response's payload is the read data, the STAT
// JSON snapshot, the FAULT JSON report, or the error text for non-OK
// statuses. Responses may arrive out of submission order — the request id
// keys them back to their request.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/ssd"
	"superfast/internal/telemetry"
)

// Protocol constants.
const (
	// Version is the wire protocol version; frames carrying any other
	// version are rejected.
	Version = 1
	// MaxPayload bounds a frame's payload. The decoder validates the length
	// prefix against it before allocating, so a hostile length field can
	// never force an oversized allocation.
	MaxPayload = 1 << 20

	reqHeaderLen  = 36 // bytes after the length prefix, before ext + payload
	traceExtLen   = 16 // trace extension bytes, present only with FlagTrace
	tenantExtLen  = 8  // tenant extension bytes, present only with FlagTenant
	respHeaderLen = 20

	maxExtLen = traceExtLen + tenantExtLen
)

// FlagSequenced marks a request carrying a replay ticket in Seq: the server
// admits it into the device in global Seq order, making a multi-connection
// replay bit-identical to a single-submitter run.
const FlagSequenced = 1 << 0

// FlagTrace marks a request carrying the 16-byte trace extension between
// the fixed header and the payload. Only set it against peers that
// advertised TraceCap — a plain v1 peer rejects unknown flag bits.
const FlagTrace = 1 << 1

// FlagTenant marks a request carrying the 8-byte tenant extension after the
// trace extension (when present). Only set it against peers that advertised
// TenantCap — a plain v1 peer rejects unknown flag bits.
const FlagTenant = 1 << 2

// TraceCap is the capability token a trace-aware server includes in its
// PING response payload (space-separated token list). Plain v1 servers
// answer PING with an empty payload, and plain v1 clients ignore it.
const TraceCap = "trace-ext"

// TenantCap is the capability token a server with configured tenant
// namespaces includes in its PING response payload.
const TenantCap = "tenant-ns"

// FaultCap is the capability token a server with fault injection enabled
// (Config.EnableFaults) includes in its PING response payload; OpFault is
// only accepted by servers that advertise it.
const FaultCap = "fault-inj"

// Op enumerates request opcodes.
type Op byte

// Request opcodes.
const (
	OpRead  Op = 1 + iota // read one logical page
	OpWrite               // write the payload to one logical page
	OpTrim                // discard one logical page
	OpFlush               // barrier: respond once this connection is idle
	OpStat                // snapshot device + server statistics (JSON)
	OpPing                // liveness / version probe
	OpFault               // fault injection command (JSON payload, behind FaultCap)
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpTrim:
		return "TRIM"
	case OpFlush:
		return "FLUSH"
	case OpStat:
		return "STAT"
	case OpPing:
		return "PING"
	case OpFault:
		return "FAULT"
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Status enumerates response status codes.
type Status byte

// Response statuses.
const (
	StatusOK            Status = iota
	StatusUncorrectable        // flash.ErrUncorrectable: ECC failed, no reconstruction
	StatusDataLoss             // ftl.ErrDataLoss: uncorrectable and RAID reconstruction failed
	StatusBadRequest           // malformed or out-of-range request (ftl.ErrOutOfRange, ftl.ErrUnmapped, mode mismatch)
	StatusRejected             // admission refused: the server is draining
	StatusDeadline             // admission deadline expired before a slot freed
	StatusInternal             // any other device error
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusUncorrectable:
		return "UNCORRECTABLE"
	case StatusDataLoss:
		return "DATA_LOSS"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusRejected:
		return "REJECTED"
	case StatusDeadline:
		return "DEADLINE"
	case StatusInternal:
		return "INTERNAL"
	}
	return fmt.Sprintf("Status(%d)", byte(s))
}

// StatusFor maps a device error onto the wire status that carries it.
func StatusFor(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ftl.ErrDataLoss):
		return StatusDataLoss
	case errors.Is(err, flash.ErrUncorrectable):
		return StatusUncorrectable
	case errors.Is(err, ftl.ErrOutOfRange), errors.Is(err, ftl.ErrUnmapped):
		return StatusBadRequest
	}
	return StatusInternal
}

// Frame is one decoded request.
type Frame struct {
	Op      Op
	Flags   byte
	Hint    ftl.Hint // write placement hint
	ID      uint64   // echoed in the response
	LPN     int64
	Seq     uint64  // replay ticket, valid when FlagSequenced is set
	Arrival float64 // simulated arrival, µs; 0 = now
	Payload []byte  // write data

	// Trace context, valid when FlagTrace is set: the request's trace id,
	// the hop that issued this frame, and the replica leg index of a
	// volume fan-out (0 outside one).
	Trace     uint64
	ParentHop telemetry.Hop
	Leg       uint8

	// Tenant is the 1-based tenant namespace id, valid when FlagTenant is
	// set. The server rebases the frame's LPN into the tenant's slice of
	// the device.
	Tenant uint16
}

// Sequenced reports whether the frame carries a replay ticket.
func (f Frame) Sequenced() bool { return f.Flags&FlagSequenced != 0 }

// Traced reports whether the frame carries the trace extension.
func (f Frame) Traced() bool { return f.Flags&FlagTrace != 0 }

// Tenanted reports whether the frame carries the tenant extension.
func (f Frame) Tenanted() bool { return f.Flags&FlagTenant != 0 }

// Response is one decoded response.
type Response struct {
	Status  Status
	ID      uint64
	Latency float64 // simulated host-visible latency, µs
	Payload []byte  // read data, STAT JSON, or error text
}

// Err returns nil for StatusOK and a descriptive error otherwise.
func (r Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	if len(r.Payload) > 0 {
		return fmt.Errorf("server: %s: %s", r.Status, r.Payload)
	}
	return fmt.Errorf("server: %s", r.Status)
}

// Decode errors. ErrShortFrame means the buffer ends before the frame does —
// a streaming caller should read more bytes; every other error is a protocol
// violation that should kill the connection.
var (
	ErrShortFrame = errors.New("server: short frame")
	ErrBadFrame   = errors.New("server: malformed frame")
	ErrFrameSize  = errors.New("server: frame length out of bounds")
)

// AppendFrame encodes f after dst and returns the extended slice. The trace
// extension is written only when FlagTrace is set, so an untraced frame's
// encoding is byte-identical to plain v1.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrFrameSize, len(f.Payload), MaxPayload)
	}
	if f.Op < OpRead || f.Op > OpFault {
		return nil, fmt.Errorf("%w: opcode %d", ErrBadFrame, f.Op)
	}
	n := reqHeaderLen + len(f.Payload)
	if f.Traced() {
		n += traceExtLen
	}
	if f.Tenanted() {
		n += tenantExtLen
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, Version, byte(f.Op), f.Flags, byte(f.Hint))
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.LPN))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.Arrival))
	if f.Traced() {
		dst = binary.BigEndian.AppendUint64(dst, f.Trace)
		dst = append(dst, byte(f.ParentHop), f.Leg, 0, 0)
		dst = binary.BigEndian.AppendUint32(dst, 0)
	}
	if f.Tenanted() {
		dst = binary.BigEndian.AppendUint16(dst, f.Tenant)
		dst = binary.BigEndian.AppendUint16(dst, 0)
		dst = binary.BigEndian.AppendUint32(dst, 0)
	}
	return append(dst, f.Payload...), nil
}

// DecodeFrame decodes one request frame from the head of b, returning the
// frame and the bytes consumed. It returns ErrShortFrame when b ends before
// the frame does, and never allocates more than the frame's validated
// payload length. The returned payload is a copy, safe to retain after b is
// reused.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, ErrShortFrame
	}
	n := int(binary.BigEndian.Uint32(b))
	if n < reqHeaderLen || n > reqHeaderLen+maxExtLen+MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrFrameSize, n)
	}
	if len(b) < 4+n {
		return Frame{}, 0, ErrShortFrame
	}
	h := b[4:]
	if h[0] != Version {
		return Frame{}, 0, fmt.Errorf("%w: version %d", ErrBadFrame, h[0])
	}
	f := Frame{
		Op:      Op(h[1]),
		Flags:   h[2],
		Hint:    ftl.Hint(h[3]),
		ID:      binary.BigEndian.Uint64(h[4:]),
		LPN:     int64(binary.BigEndian.Uint64(h[12:])),
		Seq:     binary.BigEndian.Uint64(h[20:]),
		Arrival: math.Float64frombits(binary.BigEndian.Uint64(h[28:])),
	}
	if f.Op < OpRead || f.Op > OpFault {
		return Frame{}, 0, fmt.Errorf("%w: opcode %d", ErrBadFrame, f.Op)
	}
	if f.Flags&^(FlagSequenced|FlagTrace|FlagTenant) != 0 {
		return Frame{}, 0, fmt.Errorf("%w: flags %#x", ErrBadFrame, f.Flags)
	}
	if f.Hint > ftl.HintBatch {
		return Frame{}, 0, fmt.Errorf("%w: hint %d", ErrBadFrame, f.Hint)
	}
	if math.IsNaN(f.Arrival) || math.IsInf(f.Arrival, 0) || f.Arrival < 0 {
		return Frame{}, 0, fmt.Errorf("%w: arrival %v", ErrBadFrame, f.Arrival)
	}
	body := reqHeaderLen
	if f.Traced() {
		if n < reqHeaderLen+traceExtLen {
			return Frame{}, 0, fmt.Errorf("%w: traced frame of %d bytes", ErrFrameSize, n)
		}
		ext := h[reqHeaderLen:]
		f.Trace = binary.BigEndian.Uint64(ext)
		f.ParentHop = telemetry.Hop(ext[8])
		f.Leg = ext[9]
		if !f.ParentHop.Valid() && f.ParentHop != telemetry.HopNone {
			return Frame{}, 0, fmt.Errorf("%w: parent hop %d", ErrBadFrame, ext[8])
		}
		if ext[10] != 0 || ext[11] != 0 || binary.BigEndian.Uint32(ext[12:]) != 0 {
			return Frame{}, 0, fmt.Errorf("%w: trace ext reserved bytes set", ErrBadFrame)
		}
		body += traceExtLen
	}
	if f.Tenanted() {
		if n < body+tenantExtLen {
			return Frame{}, 0, fmt.Errorf("%w: tenanted frame of %d bytes", ErrFrameSize, n)
		}
		ext := h[body:]
		f.Tenant = binary.BigEndian.Uint16(ext)
		if f.Tenant == 0 {
			return Frame{}, 0, fmt.Errorf("%w: tenant id 0", ErrBadFrame)
		}
		if binary.BigEndian.Uint16(ext[2:]) != 0 || binary.BigEndian.Uint32(ext[4:]) != 0 {
			return Frame{}, 0, fmt.Errorf("%w: tenant ext reserved bytes set", ErrBadFrame)
		}
		body += tenantExtLen
	}
	if pay := n - body; pay > 0 {
		if pay > MaxPayload {
			return Frame{}, 0, fmt.Errorf("%w: payload %d > %d", ErrFrameSize, pay, MaxPayload)
		}
		if f.Op != OpWrite && f.Op != OpFault {
			return Frame{}, 0, fmt.Errorf("%w: %s carries a payload", ErrBadFrame, f.Op)
		}
		f.Payload = append([]byte(nil), h[body:n]...)
	}
	return f, 4 + n, nil
}

// ReadFrame reads one request frame from r. The int return is the wire bytes
// consumed (for transfer accounting) even when decoding fails mid-frame.
func ReadFrame(r io.Reader) (Frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < reqHeaderLen || n > reqHeaderLen+maxExtLen+MaxPayload {
		return Frame{}, 4, fmt.Errorf("%w: %d", ErrFrameSize, n)
	}
	buf := make([]byte, 4+n)
	copy(buf, hdr[:])
	got, err := io.ReadFull(r, buf[4:])
	if err != nil {
		return Frame{}, 4 + got, err
	}
	f, used, err := DecodeFrame(buf)
	return f, used, err
}

// AppendResponse encodes r after dst and returns the extended slice.
func AppendResponse(dst []byte, r Response) ([]byte, error) {
	if len(r.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrFrameSize, len(r.Payload), MaxPayload)
	}
	n := respHeaderLen + len(r.Payload)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, Version, byte(r.Status), 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Latency))
	return append(dst, r.Payload...), nil
}

// DecodeResponse decodes one response frame from the head of b, with the
// same contract as DecodeFrame.
func DecodeResponse(b []byte) (Response, int, error) {
	if len(b) < 4 {
		return Response{}, 0, ErrShortFrame
	}
	n := int(binary.BigEndian.Uint32(b))
	if n < respHeaderLen || n > respHeaderLen+MaxPayload {
		return Response{}, 0, fmt.Errorf("%w: %d", ErrFrameSize, n)
	}
	if len(b) < 4+n {
		return Response{}, 0, ErrShortFrame
	}
	h := b[4:]
	if h[0] != Version {
		return Response{}, 0, fmt.Errorf("%w: version %d", ErrBadFrame, h[0])
	}
	if h[2] != 0 || h[3] != 0 {
		return Response{}, 0, fmt.Errorf("%w: reserved bytes set", ErrBadFrame)
	}
	r := Response{
		Status:  Status(h[1]),
		ID:      binary.BigEndian.Uint64(h[4:]),
		Latency: math.Float64frombits(binary.BigEndian.Uint64(h[12:])),
	}
	if r.Status > StatusInternal {
		return Response{}, 0, fmt.Errorf("%w: status %d", ErrBadFrame, r.Status)
	}
	if math.IsNaN(r.Latency) || math.IsInf(r.Latency, 0) {
		return Response{}, 0, fmt.Errorf("%w: latency %v", ErrBadFrame, r.Latency)
	}
	if n > respHeaderLen {
		r.Payload = append([]byte(nil), h[respHeaderLen:n]...)
	}
	return r, 4 + n, nil
}

// ReadResponse reads one response frame from r, returning the wire bytes
// consumed alongside the decoded response.
func ReadResponse(r io.Reader) (Response, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Response{}, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < respHeaderLen || n > respHeaderLen+MaxPayload {
		return Response{}, 4, fmt.Errorf("%w: %d", ErrFrameSize, n)
	}
	buf := make([]byte, 4+n)
	copy(buf, hdr[:])
	got, err := io.ReadFull(r, buf[4:])
	if err != nil {
		return Response{}, 4 + got, err
	}
	resp, used, err := DecodeResponse(buf)
	return resp, used, err
}

// ServerStats reports the serving layer's own counters inside a STAT
// snapshot.
type ServerStats struct {
	Conns     int64  `json:"conns"`       // connections currently open
	ConnsEver uint64 `json:"conns_total"` // connections ever accepted
	Accepted  uint64 `json:"accepted"`    // frames decoded off sockets
	Responses uint64 `json:"responses"`   // responses enqueued to writers
	Rejected  uint64 `json:"rejected"`    // admission refusals (drain or deadline)
	InFlight  int64  `json:"in_flight"`   // requests between admission and response
	BytesIn   uint64 `json:"bytes_in"`
	BytesOut  uint64 `json:"bytes_out"`
	// Tenants holds per-namespace counters, in tenant-id order, when the
	// server is partitioned (Config.Tenants); nil otherwise.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one namespace's slice of the serving counters.
type TenantStats struct {
	Name     string `json:"name"`
	Pages    int64  `json:"pages"`
	Quota    int    `json:"quota"`
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
}

// StatSnapshot is the STAT response payload: the device, FTL and serving
// layer statistics as one JSON document.
type StatSnapshot struct {
	Capacity int64           `json:"capacity_lpns"`
	PageSize int             `json:"page_size"`
	Device   ssd.Stats       `json:"device"`
	FTL      ftl.Stats       `json:"ftl"`
	WAF      float64         `json:"waf"`
	Chips    []ssd.ChipStats `json:"chips"`
	Server   ServerStats     `json:"server"`
}
