package main

// metricDef declares one reported metric and which direction is better.
// The tables below are the single source of the metric set; a test checks
// BENCHMARK.json against them.
type metricDef struct {
	name   string
	unit   string
	better string
}

func lower(name, unit string) metricDef  { return metricDef{name, unit, "lower"} }
func higher(name, unit string) metricDef { return metricDef{name, unit, "higher"} }

// endToEnd metrics are reported by every workload with --trace 0.
var endToEnd = []metricDef{
	lower("setup_s", "s"),        // median of the run's set-ups (arrays, kernel tables, fill, listeners)
	higher("ops_per_s", "1/s"),   // median host throughput over the timed phase
	lower("p50_us", "us"),        // median host latency of one operation
	lower("cpu_us_per_op", "us"), // process CPU time (all threads) per operation
	lower("rss_mb", "MiB"),       // median resident set, sampled every 100 ms through the run
}

// assemblyStrategies maps the sweep's strategy names to metric stems, in the
// sweep's order. The ninth strategy, QSTR-MED, is reported as core.*.
var assemblyStrategies = []struct{ name, stem string }{
	{"RANDOM", "random"},
	{"SEQUENTIAL", "sequential"},
	{"ERS-LTN", "ers_ltn"},
	{"PGM-LTN", "pgm_ltn"},
	{"OPTIMAL (8)", "optimal8"},
	{"LWL-RANK (8)", "lwl_rank8"},
	{"STR-RANK (8)", "str_rank8"},
	{"STR-MED (4)", "str_med4"},
}

// perLayer metrics are reported by every workload with --trace 1; a layer
// the workload never calls reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// client: the full cluster path.
		lower("client.rung_us", "us"),
		lower("client.p99_us", "us"),
		lower("client.p999_us", "us"),
		higher("client.samples", "count"),
		// volume and proxy.
		lower("volume.rung_us", "us"),
		lower("proxy.self_us", "us"),
		lower("volume.self_us", "us"),
		lower("volume.legs_per_op", "ratio"),
		lower("volume.read_retries", "count"),
		lower("volume.read_repairs", "count"),
		lower("volume.down_skips", "count"),
		// server and wire codec.
		lower("server.rung_us", "us"),
		lower("server.self_us", "us"),
		lower("proto.codec_ns", "ns"),
		lower("server.admission_wait_p50_us", "us"),
		lower("server.admission_wait_p99_us", "us"),
		higher("server.accepted", "count"),
		lower("server.rejected", "count"),
		lower("server.bytes_per_op", "B"),
		// ssd device front end.
		lower("ssd.read_ns", "ns"),
		lower("ssd.write_ns", "ns"),
		lower("ssd.self_ns", "ns"),
		lower("ssd.sim_wait_us", "us"),
		lower("ssd.sim_service_us", "us"),
		lower("ssd.sim_gc_us", "us"),
		lower("ssd.sim_p50_us", "us"),
		lower("ssd.sim_p999_us", "us"),
		// ftl.
		lower("ftl.rung_ns", "ns"),
		lower("ftl.waf", "ratio"),
		lower("ftl.gc_writes", "count"),
		lower("ftl.gc_steps", "count"),
		lower("ftl.gc_stalls", "count"),
		lower("ftl.gc_starved", "count"),
		lower("ftl.flushes", "count"),
		lower("ftl.erases", "count"),
		lower("ftl.extra_pgm_per_flush_us", "us"),
		lower("ftl.extra_ers_per_erase_us", "us"),
		// flash.
		lower("flash.programs_per_host_write", "ratio"),
		lower("flash.reads_per_host_read", "ratio"),
		// core (QSTR-MED).
		lower("core.pair_checks", "count"),
		lower("core.qstr_med_s", "s"),
	}
	for _, s := range assemblyStrategies {
		defs = append(defs,
			lower("assembly."+s.stem+"_s", "s"),
			lower("assembly."+s.stem+"_pair_checks", "count"),
			lower("assembly."+s.stem+"_combos", "count"))
	}
	return append(defs,
		// chamber characterization, the pv kernel tables it builds on first
		// touch, and the rest of the sweep harness.
		lower("chamber.measure_s", "s"),
		lower("pv.kernel_build_s", "s"),
		lower("experiments.sweep_s", "s"),
		lower("experiments.other_s", "s"),
		lower("experiments.qstr_med_extra_pgm_us", "us"),
		// tracing costs.
		lower("telemetry.ledger_overhead", "ratio"),
		lower("bench.span_overhead", "ratio"),
	)
}

// zeroLayers reports 0 for every per-layer metric the outcome has not set:
// the layers the workload never calls.
func zeroLayers(oc *outcome) {
	for _, d := range perLayer {
		if _, ok := oc.values[d.name]; !ok {
			oc.values[d.name] = 0
		}
	}
}
