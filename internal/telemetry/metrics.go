package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"superfast/internal/stats"
)

// Counter is a monotonically increasing event count. Safe for concurrent
// use; an Add is one atomic instruction, so counters can sit on hot paths.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time float value. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
	max  atomic.Uint64 // high-watermark, same encoding
}

// Set stores v and folds it into the high-watermark.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.bump(v)
}

// Add adjusts the gauge by delta (CAS loop) and folds the result into the
// high-watermark. Returns the new value.
func (g *Gauge) Add(delta float64) float64 {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			g.bump(v)
			return v
		}
	}
}

func (g *Gauge) bump(v float64) {
	for {
		old := g.max.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			return
		}
		if g.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Max returns the highest value the gauge has held.
func (g *Gauge) Max() float64 { return math.Float64frombits(g.max.Load()) }

// Metrics is a named registry of counters, gauges and latency digests.
// Lookup is mutex-guarded and idempotent (the same name always returns the
// same instance); hot paths should look metrics up once and cache the
// pointer, as the FTL and device front ends do.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	digests  map[string]*Digest
}

// New returns an empty metrics registry.
func New() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		digests:  make(map[string]*Digest),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Digest returns the latency digest with the given name, creating it on
// first use.
func (m *Metrics) Digest(name string) *Digest {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.digests[name]
	if d == nil {
		d = &Digest{}
		m.digests[name] = d
	}
	return d
}

// CounterValue is one counter reading in a structured export.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge reading (current value + high-watermark) in a
// structured export.
type GaugeValue struct {
	Name  string
	Value float64
	Max   float64
}

// DigestValue is one digest reading in a structured export.
type DigestValue struct {
	Name     string
	Snapshot stats.DigestSummary
}

// Export is a typed registry snapshot, each section sorted by name. Unlike
// Snapshot it preserves metric kinds, which exposition formats (Prometheus
// text format, the flight recorder) need.
type Export struct {
	Counters []CounterValue
	Gauges   []GaugeValue
	Digests  []DigestValue
}

// Export returns a typed, name-sorted snapshot of the registry.
func (m *Metrics) Export() Export {
	m.mu.Lock()
	defer m.mu.Unlock()
	var e Export
	for name, c := range m.counters {
		e.Counters = append(e.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range m.gauges {
		e.Gauges = append(e.Gauges, GaugeValue{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for name, d := range m.digests {
		e.Digests = append(e.Digests, DigestValue{Name: name, Snapshot: d.Snapshot()})
	}
	sort.Slice(e.Counters, func(i, j int) bool { return e.Counters[i].Name < e.Counters[j].Name })
	sort.Slice(e.Gauges, func(i, j int) bool { return e.Gauges[i].Name < e.Gauges[j].Name })
	sort.Slice(e.Digests, func(i, j int) bool { return e.Digests[i].Name < e.Digests[j].Name })
	return e
}

// Value is one flattened metric reading.
type Value struct {
	Name  string
	Value float64
	// Count marks readings that are integral event counts (rendered without
	// decimals).
	Count bool
}

// Snapshot flattens the registry into a name-sorted list of readings.
// Counters contribute one entry; gauges contribute the current value plus a
// ".max" watermark when it differs; digests are expanded into
// .n/.mean/.min/.max/.p50/.p95/.p99/.p999.
func (m *Metrics) Snapshot() []Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Value
	for name, c := range m.counters {
		out = append(out, Value{Name: name, Value: float64(c.Value()), Count: true})
	}
	for name, g := range m.gauges {
		v, mx := g.Value(), g.Max()
		out = append(out, Value{Name: name, Value: v})
		if mx != v {
			out = append(out, Value{Name: name + ".max", Value: mx})
		}
	}
	for name, d := range m.digests {
		s := d.Snapshot()
		out = append(out,
			Value{Name: name + ".n", Value: float64(s.N), Count: true},
			Value{Name: name + ".mean", Value: s.Mean},
			Value{Name: name + ".min", Value: s.Min},
			Value{Name: name + ".max", Value: s.Max},
			Value{Name: name + ".p50", Value: s.P50},
			Value{Name: name + ".p95", Value: s.P95},
			Value{Name: name + ".p99", Value: s.P99},
			Value{Name: name + ".p999", Value: s.P999},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
