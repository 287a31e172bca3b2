package telemetry

import (
	"math"
	"testing"

	"superfast/internal/prng"
	"superfast/internal/stats"
)

func TestDigestEmpty(t *testing.T) {
	var d Digest
	if s := d.Snapshot(); s != (stats.DigestSummary{}) {
		t.Fatalf("empty digest snapshot = %+v", s)
	}
}

func TestDigestMatchesMoments(t *testing.T) {
	var d Digest
	src := prng.New(11, 0x33)
	var xs []float64
	for i := 0; i < 3000; i++ {
		v := 50 + src.Float64()*200
		xs = append(xs, v)
		d.Observe(v)
	}
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		sum += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	mean := sum / float64(len(xs))
	s := d.Snapshot()
	if s.N != uint64(len(xs)) {
		t.Fatalf("n %d vs %d", s.N, len(xs))
	}
	if math.Abs(s.Mean-mean) > 1e-9*mean {
		t.Fatalf("mean %v vs %v", s.Mean, mean)
	}
	if s.Min != lo || s.Max != hi {
		t.Fatalf("min/max %v/%v vs %v/%v", s.Min, s.Max, lo, hi)
	}
}

func TestDigestWelfordHighOffset(t *testing.T) {
	// Samples with a huge common offset and tiny spread — a long simulated
	// run's clock magnitude (~46 days in µs). The registry digest no longer
	// keeps Welford moments, but its summary must still survive the offset:
	// count, mean, min and max exact, and quantiles inside the observed range.
	var d Digest
	base := 4e12
	for i := 1; i <= 5; i++ {
		d.Observe(base + float64(i))
	}
	s := d.Snapshot()
	if s.N != 5 {
		t.Fatalf("n = %d", s.N)
	}
	if s.Mean != base+3 {
		t.Fatalf("mean = %v, want %v", s.Mean, base+3)
	}
	if s.Min != base+1 || s.Max != base+5 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	for _, q := range []float64{s.P50, s.P95, s.P99, s.P999} {
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile %v outside [%v, %v]: %+v", q, s.Min, s.Max, s)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.P999 {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
}
