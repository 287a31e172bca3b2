// Package ssd models the device level of the storage stack: a host
// interface in front of the FTL with a simulated microsecond clock, bus
// transfer costs and queueing delay, producing host-visible response times.
// It is the layer on which the end-to-end effect of superblock organization
// (host writes stalling on the slowest member of a multi-plane program)
// becomes visible as I/O latency.
package ssd

import (
	"fmt"

	"superfast/internal/flash"
	"superfast/internal/ftl"
	"superfast/internal/telemetry"
)

// QueueModel selects how the device turns the FTL's flash work into time.
type QueueModel int

// Queue models.
const (
	// Serialized executes requests strictly in order: each request's flash
	// work occupies the whole device (the pessimistic bound, and the right
	// model for a queue-depth-1 host).
	Serialized QueueModel = iota
	// PerChip schedules each request's chip operations on per-chip queues:
	// requests touching different chips overlap, as with NCQ. Operation
	// order is preserved per chip; cross-chip dependencies inside one
	// request are approximated as independent (an optimistic bound).
	PerChip
)

func (q QueueModel) String() string {
	if q == PerChip {
		return "per-chip"
	}
	return "serialized"
}

// Config parameterizes the device.
type Config struct {
	FTL     ftl.Config
	BusMBps float64 // host interface bandwidth (SATA 3: ~550 MB/s)
	Queue   QueueModel
	// RetainLatencies keeps every per-request latency in memory so Stats can
	// return the raw Latencies slice. Off by default: long runs then rely on
	// the fixed-size bucket digest (LatencyDigest: exact mean and extrema,
	// P50–P99.9 within its bucket error) instead of an unbounded record
	// list. Only the ConcurrentDevice honours this; the serial Device always
	// retains (it exists for short deterministic runs).
	RetainLatencies bool
}

// DefaultConfig returns a SATA-3-like device over the default FTL.
func DefaultConfig() Config {
	return Config{FTL: ftl.DefaultConfig(), BusMBps: 550}
}

// OpKind enumerates host operations.
type OpKind int

// Host operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
	OpTrim
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpTrim:
		return "trim"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Request is one host command.
type Request struct {
	Kind    OpKind
	LPN     int64
	Data    []byte   // writes only; nil writes a zero-length payload
	Hint    ftl.Hint // placement hint for writes
	Arrival float64  // µs on the simulated clock; 0 = now
	// Trace is the cluster-wide trace ID this request belongs to, carried
	// into the device's trace events and GC ledger records. 0 = untraced.
	Trace uint64
	// Tenant names the namespace the request belongs to. 0 = unshaped; a
	// positive tenant with a quota registered via SetTenantQuota is rate-
	// shaped on the simulated clock (see ConcurrentDevice.SetTenantQuota).
	Tenant int
}

// Completion reports a serviced request.
type Completion struct {
	Start   float64 // service start time (after queueing)
	Finish  float64
	Wait    float64 // time spent queued
	Service float64 // flash + bus time
	Latency float64 // Wait + Service (host-visible response time)
	// GCTime is the share of Service spent in a blocking garbage collection
	// this request tripped at the hard watermark. Zero when GC did not block
	// the request — with preemptive GC the reclamation runs in idle-window
	// steps between requests and never lands here.
	GCTime float64
	// Data holds a read's payload. On the serial Device it aliases flash
	// storage and is stable only until the next Submit (copy to retain);
	// ConcurrentDevice completions own their payload and stay valid.
	Data []byte
}

// Stats aggregates device activity.
type Stats struct {
	Requests  uint64
	Reads     uint64
	Writes    uint64
	Trims     uint64
	Latencies []float64 // response time per request, µs
}

// Device is the simulated SSD. Not safe for concurrent use; wrap the same
// configuration in a ConcurrentDevice to submit from many goroutines.
type Device struct {
	f        *ftl.FTL
	cfg      Config
	now      float64 // simulated clock, µs
	busy     float64 // device busy until
	chipBusy []float64
	lat      *telemetry.Digest // nil until SetMetrics wires a registry
	rec      *recState         // nil until AttachRecorder

	stats Stats
}

// New builds a device over the given flash array.
func New(arr *flash.Array, cfg Config) (*Device, error) {
	if cfg.BusMBps <= 0 {
		return nil, fmt.Errorf("ssd: bus bandwidth must be positive, got %v", cfg.BusMBps)
	}
	f, err := ftl.New(arr, cfg.FTL)
	if err != nil {
		return nil, err
	}
	if cfg.Queue == PerChip {
		f.EnableOpJournal()
	}
	// The serial device copies every write payload into the FTL on entry and
	// serves reads before the next request runs, so the FTL may recycle
	// payload buffers from erased blocks instead of allocating fresh copies.
	// Consequence: a read Completion's Data aliases flash storage and is
	// stable only until the next Submit (the historical guarantee callers
	// rely on — tests and workloads consume reads immediately).
	f.SetPayloadOwnership(ftl.CopyRecycle)
	return &Device{f: f, cfg: cfg, chipBusy: make([]float64, arr.Geometry().Chips)}, nil
}

// FTL exposes the underlying translation layer.
func (d *Device) FTL() *ftl.FTL { return d.f }

// SetMetrics wires (or, with nil, unwires) a telemetry registry: the FTL's
// "ftl." counters plus an "ssd.latency" digest fed one observation per
// completed request. Attach after warming the device so the fill does
// not pollute the measured distribution.
func (d *Device) SetMetrics(m *telemetry.Metrics) {
	d.f.SetMetrics(m)
	if m == nil {
		d.lat = nil
		return
	}
	d.lat = m.Digest("ssd.latency")
}

// SetAttribution wires (or, with nil, unwires) a straggler attribution table
// into the FTL: every multi-plane program/erase charges its extra latency to
// the slowest member block. Call while no request is in flight.
func (d *Device) SetAttribution(a *telemetry.Attribution) { d.f.SetAttribution(a) }

// AttachRecorder wires a flight recorder: the simulated clock ticks it on
// every submission, sampling WAF, in-flight depth, the extra-latency EWMA,
// assembly pool levels, and per-chip utilization. The recorder must have been
// built with RecorderColumns for this device's chip count. Attaching enables
// the FTL op journal (so chip utilization is observable under either queue
// model); attach while no request is in flight.
func (d *Device) AttachRecorder(rec *telemetry.Recorder) error {
	if rec == nil {
		d.rec = nil
		return nil
	}
	rs, err := newRecState(rec, len(d.chipBusy), d.f, 0, nil)
	if err != nil {
		return err
	}
	d.f.EnableOpJournal()
	// Continue the device timeline: align the sampling cursor so history
	// before the attachment is not backfilled with attach-time values.
	rs.hor = d.busy
	if d.now > rs.hor {
		rs.hor = d.now
	}
	for _, b := range d.chipBusy {
		if b > rs.hor {
			rs.hor = b
		}
	}
	rec.AlignTo(rs.hor)
	d.rec = rs
	return nil
}

// FlushRecorder ticks the attached recorder up to the current simulated
// clock, emitting the samples between the last event and now. Call after the
// final submission, before exporting.
func (d *Device) FlushRecorder() {
	if d.rec != nil {
		d.rec.tick(d.now)
	}
}

// Now returns the simulated clock.
func (d *Device) Now() float64 { return d.now }

// Stats returns a copy of the device statistics.
func (d *Device) Stats() Stats {
	s := d.stats
	s.Latencies = append([]float64(nil), d.stats.Latencies...)
	return s
}

// transferTime is the host-bus cost of moving one page.
func (d *Device) transferTime(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / d.cfg.BusMBps // bytes / (MB/s) = µs
}

// gcHorizon returns the time the device frees up under the active queue
// model — where a background GC step would start.
func (d *Device) gcHorizon() float64 {
	if d.cfg.Queue != PerChip {
		return d.busy
	}
	h := 0.0
	for _, b := range d.chipBusy {
		if b > h {
			h = b
		}
	}
	return h
}

// gcStepOnce runs one preemptive GC step and schedules its flash work from
// the given start time, returning the new device horizon and whether the
// step did work (false = GC idle, nothing to reclaim).
func (d *Device) gcStepOnce(start float64) (float64, bool, error) {
	var res ftl.GCStepResult
	ops, err := d.f.CollectOps(func() error {
		var err error
		res, err = d.f.GCStep(d.f.GCStepPages())
		return err
	})
	if err != nil {
		return start, false, err
	}
	if res.Idle {
		return start, false, nil
	}
	end := start
	if d.cfg.Queue == PerChip {
		for _, op := range ops {
			s := start
			if d.chipBusy[op.Chip] > s {
				s = d.chipBusy[op.Chip]
			}
			e := s + op.Dur
			d.chipBusy[op.Chip] = e
			if e > end {
				end = e
			}
		}
	} else {
		end = start + res.Latency
		d.busy = end
	}
	if d.rec != nil {
		for _, op := range ops {
			d.rec.busy[op.Chip] += op.Dur
		}
		if end > d.rec.hor {
			d.rec.hor = end
		}
	}
	return end, true, nil
}

// gcIdleSteps runs GC steps in the idle window before the clock — host
// requests keep priority because stepping stops as soon as the window is
// consumed (the last step may overshoot: flash ops are not preemptible).
func (d *Device) gcIdleSteps() error {
	if d.f.GCStepPages() <= 0 {
		return nil
	}
	h := d.gcHorizon()
	for h < d.now && d.f.GCNeeded() {
		var worked bool
		var err error
		h, worked, err = d.gcStepOnce(h)
		if err != nil {
			return err
		}
		if !worked {
			return nil
		}
	}
	return nil
}

// gcDebtStep pays GC debt after a serviced request — the forward progress
// guarantee for closed-loop hosts that never leave an idle window. Host work
// keeps strict priority: when the serviced request had queued (the device is
// backlogged), no step is taken and the idle windows catch up later — unless
// the FTL reports pressure: a trickle step when the pool is down to the GC
// reserve row, a small burst when it is empty. Always bounded: a host
// request is never stuck behind a whole collection.
func (d *Device) gcDebtStep(queued bool) error {
	if d.f.GCStepPages() <= 0 || !d.f.GCNeeded() {
		return nil
	}
	steps := 1
	switch d.f.GCPressure() {
	case 2:
		steps = 4
	case 1:
	default:
		if queued {
			return nil
		}
	}
	h := d.gcHorizon()
	for i := 0; i < steps && d.f.GCNeeded(); i++ {
		var worked bool
		var err error
		h, worked, err = d.gcStepOnce(h)
		if err != nil {
			return err
		}
		if !worked {
			return nil
		}
	}
	return nil
}

// Submit services one request on the simulated clock and returns its
// completion. Requests are serviced in submission order (one deep queue:
// the FTL serializes flash work; queueing delay models a busy device).
func (d *Device) Submit(req Request) (Completion, error) {
	if req.Arrival > d.now {
		d.now = req.Arrival
	}
	if d.rec != nil {
		// Sample any interval boundaries crossed before this request's work
		// lands, so each sample holds the pre-event state.
		d.rec.tick(d.now)
	}
	if err := d.gcIdleSteps(); err != nil {
		return Completion{}, err
	}
	start := d.now
	if d.busy > start {
		start = d.busy
	}
	var service, gcTime float64
	var data []byte
	ops, err := d.f.CollectOps(func() error {
		switch req.Kind {
		case OpWrite:
			res, err := d.f.WriteHinted(req.LPN, req.Data, req.Hint)
			if err != nil {
				return err
			}
			service = d.transferTime(len(req.Data)) + res.Latency
			gcTime = res.GCLatency
			d.stats.Writes++
		case OpRead:
			res, err := d.f.Read(req.LPN)
			if err != nil {
				return err
			}
			data = res.Data
			service = res.Latency + d.transferTime(len(res.Data))
			d.stats.Reads++
		case OpTrim:
			if err := d.f.Trim(req.LPN); err != nil {
				return err
			}
			service = 1 // command overhead only
			d.stats.Trims++
		default:
			return fmt.Errorf("ssd: unknown op kind %v", req.Kind)
		}
		return nil
	})
	if err != nil {
		return Completion{}, err
	}
	var finish float64
	if d.cfg.Queue == PerChip {
		// Schedule this request's chip work on per-chip queues: it starts
		// at its arrival (not behind unrelated requests) and completes when
		// the last of its chip operations completes.
		reqStart := req.Arrival
		if reqStart == 0 {
			// The documented "0 = now" convention: an unstamped request
			// starts at the current clock. Without this clamp it would be
			// scheduled at absolute time zero — its chip work lands in the
			// past and the reported service time spans the whole simulated
			// history instead of this request's own flash work.
			reqStart = d.now
		}
		end := reqStart
		for _, op := range ops {
			s := reqStart
			if d.chipBusy[op.Chip] > s {
				s = d.chipBusy[op.Chip]
			}
			e := s + op.Dur
			d.chipBusy[op.Chip] = e
			if e > end {
				end = e
			}
		}
		xfer := d.transferTime(len(req.Data)) + d.transferTime(len(data))
		if req.Kind == OpTrim {
			xfer = 1
		}
		finish = end + xfer
		start = reqStart
		service = finish - reqStart
	} else {
		finish = start + service
	}
	if d.rec != nil {
		for _, op := range ops {
			d.rec.busy[op.Chip] += op.Dur
		}
		d.rec.note(finish)
	}
	d.busy = finish
	if finish > d.now {
		// The simulated clock follows completions: submitting work takes
		// the device (and the caller issuing sequentially) to its finish.
		d.now = finish
	}
	c := Completion{
		Start:   start,
		Finish:  finish,
		Wait:    start - req.Arrival,
		Service: service,
		Latency: finish - req.Arrival,
		GCTime:  gcTime,
		Data:    data,
	}
	if req.Arrival == 0 {
		c.Wait = 0
		c.Latency = service
	}
	d.stats.Requests++
	d.stats.Latencies = append(d.stats.Latencies, c.Latency)
	if d.lat != nil {
		d.lat.Observe(c.Latency)
	}
	if err := d.gcDebtStep(c.Wait > 0); err != nil {
		return c, err
	}
	return c, nil
}

// PageSize returns the device's page size in bytes.
func (d *Device) PageSize() int { return d.f.Geometry().PageSize }

// FillSequential writes every logical page once with the given payload
// generator — a convenience for warming the device before measurements.
func (d *Device) FillSequential(payload func(lpn int64) []byte) error {
	for lpn := int64(0); lpn < d.f.Capacity(); lpn++ {
		var data []byte
		if payload != nil {
			data = payload(lpn)
		}
		if _, err := d.Submit(Request{Kind: OpWrite, LPN: lpn, Data: data}); err != nil {
			return fmt.Errorf("ssd: fill at lpn %d: %w", lpn, err)
		}
	}
	return nil
}
