package stats

import (
	"math"
	"sort"
	"testing"

	"superfast/internal/prng"
)

// digestTol is the quantile error guarantee: the estimate interpolates inside
// one log-linear bucket, so it can sit at most a bucket width from the true
// sample quantile — 2/subBuckets relative, plus a little slack for the
// retained-sample interpolation convention differing across bucket edges.
const digestTol = 2.0 / subBuckets

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// checkQuantiles compares a digest against the retained-sample ground truth.
func checkQuantiles(t *testing.T, d *LatencyDigest, samples []float64) {
	t.Helper()
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if d.Count() != uint64(len(samples)) {
		t.Fatalf("digest count %d, want %d", d.Count(), len(samples))
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		got := d.Quantile(q)
		want := Quantile(sorted, q)
		if relErr(got, want) > digestTol {
			t.Errorf("q%.3f: digest %v, exact %v (rel err %.4f > %.4f)",
				q, got, want, relErr(got, want), digestTol)
		}
	}
	if got, want := d.Min(), sorted[0]; got != want {
		t.Errorf("min %v, want %v", got, want)
	}
	if got, want := d.Max(), sorted[len(sorted)-1]; got != want {
		t.Errorf("max %v, want %v", got, want)
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if want := sum / float64(len(samples)); relErr(d.Mean(), want) > 1e-12 {
		t.Errorf("mean %v, want %v", d.Mean(), want)
	}
}

// digestSamples draws len-n samples from a named shape.
func digestSamples(shape string, n int, seed uint64) []float64 {
	src := prng.New(seed, 0xd16e)
	out := make([]float64, n)
	for i := range out {
		u := src.Float64()
		switch shape {
		case "uniform":
			out[i] = 50 + 5000*u
		case "exponential":
			if u >= 1 {
				u = 1 - 1e-12
			}
			out[i] = -800 * math.Log(1-u)
		case "bimodal":
			if src.Float64() < 0.85 {
				out[i] = 90 + 40*u
			} else {
				out[i] = 12000 + 3000*u
			}
		case "constant":
			out[i] = 1234.5
		case "heavy-dup":
			out[i] = float64(1 + src.Intn(5))
		}
	}
	return out
}

// TestLatencyDigestMergeMatchesRetained is the property test: samples split
// across k shard digests and merged must report the same quantiles (within
// bucket tolerance) as the retained-sample ground truth over the whole
// sample — the invariant that lets the cluster view sum per-shard digests
// instead of shipping latency arrays.
func TestLatencyDigestMergeMatchesRetained(t *testing.T) {
	for _, shape := range []string{"uniform", "exponential", "bimodal", "constant", "heavy-dup"} {
		for _, shards := range []int{1, 3, 7} {
			samples := digestSamples(shape, 5000, uint64(shards)*7+3)
			parts := make([]*LatencyDigest, shards)
			for i := range parts {
				parts[i] = &LatencyDigest{}
			}
			// Deal samples round-robin, the striping pattern the volume uses.
			for i, v := range samples {
				parts[i%shards].Observe(v)
			}
			merged := MergeDigests(parts...)
			t.Run(shape, func(t *testing.T) { checkQuantiles(t, merged, samples) })

			// Merging must be exact on the bucket counts and extrema: the
			// merged digest equals one that saw the whole stream directly
			// (the sum may differ by float addition order only).
			whole := &LatencyDigest{}
			for _, v := range samples {
				whole.Observe(v)
			}
			if merged.counts != whole.counts || merged.n != whole.n ||
				merged.min != whole.min || merged.max != whole.max {
				t.Fatalf("%s/%d shards: merged digest differs from direct digest", shape, shards)
			}
			if relErr(merged.sum, whole.sum) > 1e-9 {
				t.Fatalf("%s/%d shards: merged sum %v vs direct %v", shape, shards, merged.sum, whole.sum)
			}
		}
	}
}

func TestLatencyDigestEdgeCases(t *testing.T) {
	var d LatencyDigest
	if d.Quantile(0.5) != 0 || d.Count() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty digest must read as zeros")
	}
	d.Observe(0)
	d.Observe(-5)
	d.Observe(math.Inf(1))
	d.Observe(math.Ldexp(1, minExp-3)) // below range → underflow bucket
	d.Observe(math.Ldexp(1, maxExp+2)) // above range → top bucket
	if d.Count() != 5 {
		t.Fatalf("count %d, want 5", d.Count())
	}
	// The low quantile's rank lands in the underflow bucket (which absorbs
	// zero, negative and sub-range values); the estimate must stay inside it.
	if got := d.Quantile(0.01); got < d.Min() || got >= math.Ldexp(1, minExp) {
		t.Fatalf("low quantile %v outside [min, underflow-hi)", got)
	}
	// The high quantile's rank lands in the overflow bucket; the estimate
	// stays in it (finite) even though the exact max is +Inf.
	overflowLo, _ := bucketBounds(digestBuckets - 1)
	if got := d.Quantile(0.9999); got < overflowLo || got > d.Max() {
		t.Fatalf("high quantile %v outside overflow bucket", got)
	}
	if d.Quantile(0) != d.Min() || d.Quantile(1) != d.Max() {
		t.Fatal("q=0/q=1 must return exact extrema")
	}

	// Merging an empty or nil digest is a no-op.
	before := d
	d.Merge(nil)
	d.Merge(&LatencyDigest{})
	if d != before {
		t.Fatal("empty merge changed the digest")
	}
	var fresh LatencyDigest
	fresh.Merge(&d)
	if fresh != d {
		t.Fatal("merge into empty digest must copy it")
	}
}

func TestLatencyDigestSummary(t *testing.T) {
	var d LatencyDigest
	for i := 1; i <= 1000; i++ {
		d.Observe(float64(i))
	}
	s := d.Summary()
	if s.N != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("summary %+v", s)
	}
	if relErr(s.P50, 500.5) > digestTol || relErr(s.P999, 999.001) > digestTol {
		t.Fatalf("summary quantiles off: %+v", s)
	}
	if relErr(s.Mean, 500.5) > 1e-12 {
		t.Fatalf("summary mean %v", s.Mean)
	}

	// Samples with a huge common offset and tiny spread — a long simulated
	// run's clock magnitude (~46 days in µs): mean, min and max stay exact.
	var off LatencyDigest
	base := 4e12
	for i := 1; i <= 5; i++ {
		off.Observe(base + float64(i))
	}
	if s := off.Summary(); s.N != 5 || s.Mean != base+3 || s.Min != base+1 || s.Max != base+5 {
		t.Fatalf("high-offset summary %+v", s)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's bounds must map back into that bucket, and bucketing
	// must be monotone across a wide sweep.
	for i := 0; i < digestBuckets; i++ {
		lo, hi := bucketBounds(i)
		if i > 0 {
			if got := bucketIndex(lo); got != i {
				t.Fatalf("bucket %d: lo %v maps to %d", i, lo, got)
			}
		}
		mid := lo + (hi-lo)/2
		if got := bucketIndex(mid); got != i {
			t.Fatalf("bucket %d: mid %v maps to %d", i, mid, got)
		}
	}
	prev := -1
	for v := 1e-4; v < 1e15; v *= 1.01 {
		b := bucketIndex(v)
		if b < prev {
			t.Fatalf("bucketing not monotone at %v: %d < %d", v, b, prev)
		}
		prev = b
	}
}

func TestMergeHistograms(t *testing.T) {
	a, err := NewHistogram([]float64{1, 2, 3, 50}, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHistogram([]float64{-1, 4, 5}, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeHistograms(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != 5 || m.Under != 1 || m.Over != 1 {
		t.Fatalf("merged %+v", m)
	}
	// The merge must equal a histogram built over the union.
	union, _ := NewHistogram([]float64{1, 2, 3, 50, -1, 4, 5}, 0, 10, 5)
	for i := range m.Counts {
		if m.Counts[i] != union.Counts[i] {
			t.Fatalf("bin %d: merged %d, union %d", i, m.Counts[i], union.Counts[i])
		}
	}

	// Layout mismatches and empty input are errors, not silent smearing.
	c, _ := NewHistogram(nil, 0, 20, 5)
	if _, err := MergeHistograms(a, c); err == nil {
		t.Fatal("range mismatch must fail")
	}
	d, _ := NewHistogram(nil, 0, 10, 4)
	if _, err := MergeHistograms(a, d); err == nil {
		t.Fatal("bin-count mismatch must fail")
	}
	if _, err := MergeHistograms(); err == nil {
		t.Fatal("empty merge must fail")
	}
	if _, err := MergeHistograms(nil, nil); err == nil {
		t.Fatal("all-nil merge must fail")
	}
}
