package telemetry

import (
	"sync"

	"superfast/internal/stats"
)

// Digest is a mutex-guarded stats.LatencyDigest: the registry's latency
// summary, safe to feed from several goroutines. The underlying bucket sketch
// is order-independent, so a snapshot does not depend on the order
// concurrent observers won the lock (only the mean's float sum may differ in
// its last bits).
type Digest struct {
	mu sync.Mutex
	d  stats.LatencyDigest
}

// Observe feeds one sample.
func (d *Digest) Observe(v float64) {
	d.mu.Lock()
	d.d.Observe(v)
	d.mu.Unlock()
}

// Snapshot returns the current summary. An empty digest yields zeros.
func (d *Digest) Snapshot() stats.DigestSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.d.Summary()
}
