package telemetry

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	res := rw.Result()
	body, _ := io.ReadAll(res.Body)
	return res.StatusCode, string(body)
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"ftl.waf":          "ftl_waf",
		"chip.03.busy_us":  "chip_03_busy_us",
		"latency-µs":       "latency__s",
		"9lives":           "_9lives",
		"ok_name:colonful": "ok_name:colonful",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsHandlerExposition(t *testing.T) {
	m := New()
	m.Counter("ftl.flushes").Add(42)
	g := m.Gauge("host.qdepth")
	g.Set(5)
	g.Set(2) // watermark 5 differs from current 2
	d := m.Digest("host.read_lat_us")
	for _, v := range []float64{100, 200, 300, 400, 500, 600} {
		d.Observe(v)
	}

	code, body := get(t, MetricsHandler(func(w *bufio.Writer) { WritePrometheus(w, m) }), "/metrics")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, frag := range []string{
		"# TYPE ftl_flushes counter\nftl_flushes 42\n",
		"# TYPE host_qdepth gauge\nhost_qdepth 2\n",
		"# TYPE host_qdepth_max gauge\nhost_qdepth_max 5\n",
		"# TYPE host_read_lat_us summary\n",
		`host_read_lat_us{quantile="0.5"}`,
		`host_read_lat_us{quantile="0.95"}`,
		`host_read_lat_us{quantile="0.99"}`,
		`host_read_lat_us{quantile="0.999"}`,
		"host_read_lat_us_sum 2100\n",
		"host_read_lat_us_count 6\n",
		"host_read_lat_us_min 100\n",
		"host_read_lat_us_max 600\n",
	} {
		if !strings.Contains(body, frag) {
			t.Fatalf("exposition missing %q:\n%s", frag, body)
		}
	}
	// Families must appear in sorted-name order.
	idx := func(s string) int { return strings.Index(body, "# TYPE "+s+" ") }
	order := []string{"ftl_flushes", "host_qdepth", "host_qdepth_max", "host_read_lat_us"}
	for i := 1; i < len(order); i++ {
		if idx(order[i-1]) < 0 || idx(order[i]) < 0 || idx(order[i-1]) > idx(order[i]) {
			t.Fatalf("family order broken around %s/%s:\n%s", order[i-1], order[i], body)
		}
	}
}

func TestRoutesEndpoints(t *testing.T) {
	m := New()
	m.Counter("reqs").Inc()
	rec, _ := NewRecorder(100, 8, []string{"waf"})
	rec.Tick(100, func(t float64, vals []float64) { vals[0] = 1.5 })
	attr := NewAttribution()
	attr.Record('p', false, true, []BlockKey{{0, 0, 0}, {0, 1, 0}}, []float64{100, 130})

	mux := Routes(m, rec, attr, nil)

	if code, body := get(t, mux, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := get(t, mux, "/metrics"); code != 200 || !strings.Contains(body, "reqs 1") {
		t.Fatalf("metrics = %d %q", code, body)
	}
	if code, body := get(t, mux, "/flightrecorder"); code != 200 || !strings.HasPrefix(body, "t_us,waf\n") {
		t.Fatalf("flightrecorder = %d %q", code, body)
	}
	if code, body := get(t, mux, "/flightrecorder?format=json"); code != 200 || !strings.Contains(body, `"interval_us": 100`) {
		t.Fatalf("flightrecorder json = %d %q", code, body)
	}
	if code, body := get(t, mux, "/attribution?topk=1"); code != 200 || !strings.Contains(body, `"stragglers"`) {
		t.Fatalf("attribution = %d %q", code, body)
	}
	if code, _ := get(t, mux, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline = %d", code)
	}
}

func TestRoutesOptionalSinksAbsent(t *testing.T) {
	mux := Routes(New(), nil, nil, nil)
	if code, _ := get(t, mux, "/flightrecorder"); code != 404 {
		t.Fatalf("flightrecorder without recorder = %d, want 404", code)
	}
	if code, _ := get(t, mux, "/attribution"); code != 404 {
		t.Fatalf("attribution without table = %d, want 404", code)
	}
}

func TestServeEphemeralPort(t *testing.T) {
	m := New()
	m.Counter("up").Inc()
	srv, addr, err := Serve("127.0.0.1:0", Routes(m, nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz over TCP = %d %q", res.StatusCode, body)
	}
}
