package telemetry

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"superfast/internal/stats"
)

// promName sanitizes a registry metric name into the Prometheus exposition
// charset [a-zA-Z0-9_:]: dots (the registry's namespace separator) and any
// other invalid rune become underscores.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromWriter renders the Prometheus text exposition format (version 0.0.4).
// It is the one exposition writer behind every /metrics endpoint — the
// registry, the hop ledger and the volume's cluster view all render through
// it — so metric names are sanitized (promName), values formatted and
// latency summaries shaped the same way everywhere.
type PromWriter struct{ W *bufio.Writer }

// Family starts a metric family: an optional # HELP line and the # TYPE line.
func (p PromWriter) Family(name, kind, help string) {
	name = promName(name)
	if help != "" {
		p.W.WriteString("# HELP " + name + " " + help + "\n")
	}
	p.W.WriteString("# TYPE " + name + " " + kind + "\n")
}

// Sample writes one sample line; labels is a pre-rendered label list (see
// PromLabels), empty for an unlabeled series.
func (p PromWriter) Sample(name, labels string, v float64) {
	p.W.WriteString(promName(name))
	if labels != "" {
		p.W.WriteString("{" + labels + "}")
	}
	p.W.WriteByte(' ')
	p.W.WriteString(formatPromValue(v))
	p.W.WriteByte('\n')
}

// Quantiles writes one series of the summary shape every latency digest is
// exposed in: quantiles 0.5/0.95/0.99/0.999, _sum and _count, plus exact
// _min/_max once the digest holds a sample.
func (p PromWriter) Quantiles(name, labels string, s stats.DigestSummary) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, q := range [...]struct {
		q string
		v float64
	}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}, {"0.999", s.P999}} {
		p.Sample(name, labels+sep+`quantile="`+q.q+`"`, q.v)
	}
	p.Sample(name+"_sum", labels, s.Mean*float64(s.N))
	p.Sample(name+"_count", labels, float64(s.N))
	if s.N > 0 {
		p.Sample(name+"_min", labels, s.Min)
		p.Sample(name+"_max", labels, s.Max)
	}
}

// Counter writes a single-sample counter family.
func (p PromWriter) Counter(name, help string, v float64) {
	p.Family(name, "counter", help)
	p.Sample(name, "", v)
}

// Gauge writes a single-sample gauge family.
func (p PromWriter) Gauge(name, help string, v float64) {
	p.Family(name, "gauge", help)
	p.Sample(name, "", v)
}

// Summary writes an unlabeled summary family.
func (p PromWriter) Summary(name, help string, s stats.DigestSummary) {
	p.Family(name, "summary", help)
	p.Quantiles(name, "", s)
}

// PromLabels renders key/value pairs as a label list: k1="v1",k2="v2".
func PromLabels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i] + "=" + strconv.Quote(kv[i+1]))
	}
	return b.String()
}

// formatPromValue renders a sample value: integral values (counts, sums of
// whole microseconds) without an exponent, everything else in the shortest
// round-tripping form.
func formatPromValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry: counters and gauges as their own
// families (gauge high-watermarks as an extra <name>_max gauge when they
// differ from the current value), digests as summaries. Families are emitted
// in sorted-name order, so the body is deterministic for a fixed registry
// state.
func WritePrometheus(w *bufio.Writer, m *Metrics) {
	p := PromWriter{w}
	type family struct {
		name string
		emit func()
	}
	var fams []family
	snap := m.Export()
	for _, c := range snap.Counters {
		fams = append(fams, family{promName(c.Name), func() { p.Counter(c.Name, "", float64(c.Value)) }})
	}
	for _, g := range snap.Gauges {
		fams = append(fams, family{promName(g.Name), func() { p.Gauge(g.Name, "", g.Value) }})
		if g.Max != g.Value {
			fams = append(fams, family{promName(g.Name) + "_max", func() { p.Gauge(g.Name+"_max", "", g.Max) }})
		}
	}
	for _, d := range snap.Digests {
		fams = append(fams, family{promName(d.Name), func() { p.Summary(d.Name, "", d.Snapshot) }})
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.emit()
	}
}

// WriteLedgerPrometheus appends the ledger's per-hop latency digests: one
// hop_latency_us summary family with a hop label per hop taxonomy entry
// (units are wall-clock µs for wall-only hops and simulated µs otherwise).
// A nil ledger writes nothing.
func WriteLedgerPrometheus(w *bufio.Writer, led *Ledger) {
	if led == nil {
		return
	}
	p := PromWriter{w}
	p.Family("hop_latency_us", "summary", "")
	for h := Hop(0); h < NumHops; h++ {
		if s := led.HopSummary(h); s.N > 0 {
			p.Quantiles("hop_latency_us", PromLabels("hop", h.String()), s)
		}
	}
}

// MetricsHandler serves a Prometheus text exposition rendered by write. It is
// the /metrics handler of every HTTP surface: Routes passes the registry and
// hop ledger writers, the volume its cluster view.
func MetricsHandler(write func(w *bufio.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		write(bw)
		bw.Flush()
	})
}

// TraceHandler serves the ledger's current records: the JSONL shard by
// default (what ftltrace merges), ?format=chrome for a Chrome trace-event
// file of this shard alone, ?format=breakdown for the per-hop text table.
func TraceHandler(led *Ledger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs := led.Records()
		switch r.URL.Query().Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			WriteLedgerChrome(w, recs, r.URL.Query().Get("wall") == "1")
		case "breakdown":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			LedgerBreakdown(recs).WriteTable(w)
		default:
			w.Header().Set("Content-Type", "application/x-ndjson")
			WriteShard(w, recs)
		}
	})
}

// Routes builds the live-exposition mux: /metrics (Prometheus text format,
// with per-hop latency summaries when a ledger is wired), /healthz (200
// "ok"), /debug/pprof/* (the standard Go profiler), and — when the optional
// sinks are non-nil — /flightrecorder (CSV; ?format=json for JSON),
// /attribution (JSON; ?topk=N bounds the straggler table) and /trace (the
// hop-ledger shard; see TraceHandler for formats).
func Routes(m *Metrics, rec *Recorder, attr *Attribution, led *Ledger) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(func(w *bufio.Writer) {
		WritePrometheus(w, m)
		WriteLedgerPrometheus(w, led)
	}))
	if led != nil {
		mux.Handle("/trace", TraceHandler(led))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if rec != nil {
		mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("format") == "json" {
				w.Header().Set("Content-Type", "application/json")
				rec.WriteJSON(w)
				return
			}
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			rec.WriteCSV(w)
		})
	}
	if attr != nil {
		mux.HandleFunc("/attribution", func(w http.ResponseWriter, r *http.Request) {
			topK := 20
			if q := r.URL.Query().Get("topk"); q != "" {
				if v, err := strconv.Atoi(q); err == nil {
					topK = v
				}
			}
			w.Header().Set("Content-Type", "application/json")
			attr.WriteJSON(w, topK)
		})
	}
	return mux
}

// Serve listens on addr (":0" or "127.0.0.1:0" pick an ephemeral port) and
// serves handler in a background goroutine. It returns the server and the
// bound address; shut the server down with (*http.Server).Close or Shutdown.
func Serve(addr string, handler http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
