package volume

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"superfast/internal/telemetry"
)

// Routes returns the volume's HTTP surface:
//
//	GET  /metrics           merged Prometheus exposition (cluster + per-backend)
//	GET  /cluster           full cluster snapshot as JSON
//	GET  /trace             hop-ledger shard (when a ledger is wired)
//	POST /rebalance/add     ?addr=host:port — attach a backend and rebalance
//	POST /rebalance/remove  ?backend=N — drain and detach a backend
//
// The proxy may be nil; frontend serving counters are then omitted. led may
// be nil; /trace and the hop_latency_us summaries are then omitted.
func Routes(v *Volume, p *Proxy, led *telemetry.Ledger) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(func(w *bufio.Writer) {
		writePrometheus(telemetry.PromWriter{W: w}, v, p)
		telemetry.WriteLedgerPrometheus(w, led)
	}))
	if led != nil {
		mux.Handle("/trace", telemetry.TraceHandler(led))
	}
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		snap := v.ClusterStat()
		if p != nil {
			snap.Server.Conns = p.connsNow.Load()
			snap.Server.ConnsEver = p.connsEver.Load()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
	mux.HandleFunc("/rebalance/add", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		addr := r.FormValue("addr")
		if addr == "" {
			http.Error(w, "missing addr", http.StatusBadRequest)
			return
		}
		nb, err := v.AddBackend(addr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintf(w, "{\"backend\": %d}\n", nb)
	})
	mux.HandleFunc("/rebalance/remove", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		b, err := strconv.Atoi(r.FormValue("backend"))
		if err != nil {
			http.Error(w, "bad backend index", http.StatusBadRequest)
			return
		}
		if err := v.RemoveBackend(b); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintf(w, "{\"removed\": %d}\n", b)
	})
	return mux
}

// writePrometheus renders the merged exposition: volume-level counters and
// latency summaries at cluster scope, and every backend's srv_* serving
// counters as labeled series, so one scrape covers the whole shard set.
func writePrometheus(w telemetry.PromWriter, v *Volume, p *Proxy) {
	snap := v.ClusterStat()

	w.Counter("vol_reads_total", "logical reads accepted by the volume", float64(snap.Volume.Reads))
	w.Counter("vol_writes_total", "logical writes accepted by the volume", float64(snap.Volume.Writes))
	w.Counter("vol_trims_total", "logical trims accepted by the volume", float64(snap.Volume.Trims))
	w.Counter("vol_flushes_total", "cluster flush barriers", float64(snap.Volume.Flushes))
	w.Counter("vol_read_retries_total", "reads retried on another replica", float64(snap.Volume.Retries))
	w.Counter("vol_read_repairs_total", "divergent replicas rewritten", float64(snap.Volume.Repairs))
	w.Counter("vol_unit_moves_total", "stripe units relocated by rebalance", float64(snap.Volume.UnitMoves))
	w.Gauge("vol_space_lpns", "logical pages the volume exposes", float64(snap.Capacity))
	w.Gauge("vol_stripe_pages", "pages per stripe unit", float64(snap.Stripe))
	w.Gauge("vol_replicas", "copies kept of every stripe unit", float64(snap.Replicas))
	w.Gauge("vol_waf", "cluster write amplification", snap.WAF)

	active := 0
	for _, b := range snap.Backends {
		if b.Active {
			active++
		}
	}
	w.Gauge("vol_backends_active", "backends serving shard ranges", float64(active))
	if p != nil {
		s := p.Stats()
		w.Gauge("vol_conns", "open frontend connections", float64(s.Conns))
		w.Counter("vol_accepted_total", "frames accepted by the frontend", float64(s.Accepted))
		w.Counter("vol_rejected_total", "frames rejected by the frontend", float64(s.Rejected))
	}
	w.Summary("vol_read_latency_us", "simulated read latency across all shards", snap.ReadLat)
	w.Summary("vol_write_latency_us", "simulated write latency across all shards", snap.WriteLat)

	// Per-backend serving counters under one scrape, labeled by shard.
	series := []struct {
		name, help string
		val        func(BackendStat) float64
	}{
		{"vol_backend_up", "1 when the backend answered its STAT probe", func(b BackendStat) float64 {
			if b.Active && b.Error == "" {
				return 1
			}
			return 0
		}},
		{"vol_backend_slots_used", "stripe units placed on the backend", func(b BackendStat) float64 { return float64(b.Slots) }},
		{"vol_backend_srv_accepted", "frames the backend accepted", func(b BackendStat) float64 { return float64(b.Snap.Server.Accepted) }},
		{"vol_backend_srv_rejected", "frames the backend rejected", func(b BackendStat) float64 { return float64(b.Snap.Server.Rejected) }},
		{"vol_backend_srv_inflight", "requests in flight on the backend", func(b BackendStat) float64 { return float64(b.Snap.Server.InFlight) }},
		{"vol_backend_srv_conns", "connections open on the backend", func(b BackendStat) float64 { return float64(b.Snap.Server.Conns) }},
		{"vol_backend_device_requests", "device requests completed", func(b BackendStat) float64 { return float64(b.Snap.Device.Requests) }},
		{"vol_backend_waf", "backend write amplification", func(b BackendStat) float64 { return b.Snap.WAF }},
	}
	for _, s := range series {
		w.Family(s.name, "gauge", s.help)
		for _, b := range snap.Backends {
			w.Sample(s.name, telemetry.PromLabels("backend", strconv.Itoa(b.Backend), "addr", b.Addr), s.val(b))
		}
	}
}
