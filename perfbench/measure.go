package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// median returns the middle value (mean of the two middles for even n), 0
// for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supported reports whether n samples leave at least ten beyond the q
// quantile — the least a tail percentile needs to mean anything.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// tailOrZero is the q-quantile of sorted when the sample count supports it,
// else 0 (reported as "not enough samples", never as a fabricated value).
func tailOrZero(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return percentile(sorted, q)
}

// perOpUS is a rung's host cost of one operation: wall time over ops, µs.
func perOpUS(elapsed time.Duration, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(ops)
}

// selfTime is a layer's own cost: its rung minus the rung below it, the
// lower rung scaled by how many of its operations one upper operation makes
// (replica fan-out legs per volume op; 1 elsewhere).
func selfTime(rung, below, fanout float64) float64 {
	return rung - below*fanout
}

// overhead is the throughput a mechanism costs: 1 − with/without.
func overhead(with, without float64) float64 {
	if without == 0 {
		return 0
	}
	return 1 - with/without
}

// timeSetups runs setup n times, keeping the last instance and closing the
// others, and returns the kept instance with the median set-up seconds.
func timeSetups[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var zero T
	secs := make([]float64, 0, n)
	var kept T
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			closeFn(kept)
		}
		kept = v
	}
	return kept, median(secs), nil
}

// span is one timed call the benchmark made into a layer's public API. The
// ID is the op's index in the seeded stream, so one request's spans share
// an ID across the rungs of the ladder.
type span struct {
	ID    int64  `json:"id"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"` // since the traced run began
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; rung workers append their local batches
// once, when they finish.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) since(t time.Time) int64 { return t.Sub(l.t0).Nanoseconds() }

func (l *spanLog) add(batch []span) {
	l.mu.Lock()
	l.spans = append(l.spans, batch...)
	l.mu.Unlock()
}

// durationsUS returns the sorted durations of one layer's spans, µs.
func (l *spanLog) durationsUS(layer string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Layer == layer {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// write dumps every span as JSON lines, in recording order.
func (l *spanLog) write(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	return f.Close()
}
