// Command perfbench is the repository's fixed performance benchmark. One run
// drives one named workload for a fixed wall-clock budget, checks that the
// program's outputs are correct, and prints one JSON result line last on
// standard output:
//
//	bash perfbench/run.sh --workload cluster-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it replays the workload's op stream down the per-layer rung ladder and
// carries the per-layer metrics instead. See README.md for the workloads,
// the metric → layer → workload map and the comparison protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the run parameters every workload receives.
type options struct {
	seed     uint64
	duration time.Duration
	spans    string // write the traced run's spans here (JSONL); "" = keep in memory only
}

// outcome is what a workload run hands back: values keyed by metric name
// (units come from the metric tables), plus the correctness verdict.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string // correctness failures; empty = correct
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named benchmark workload: an untimed-setup, timed-run
// end-to-end pass and a traced rung-ladder pass over the same op stream.
type workload struct {
	name   string
	run    func(options) (*outcome, error)
	traced func(options) (*outcome, error)
}

var workloads = []workload{
	{name: "cluster-mixed", run: runClusterMixed, traced: traceClusterMixed},
	{name: "device-churn", run: runDeviceChurn, traced: traceDeviceChurn},
	{name: "paper-repro", run: runPaperRepro, traced: tracePaperRepro},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: cluster-mixed | device-churn | paper-repro")
		seed    = flag.Uint64("seed", 1, "workload seed: generates the op stream and model inputs")
		seconds = flag.Int("seconds", 20, "wall-clock seconds the timed phase runs")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced rung ladder with per-layer metrics")
		spans   = flag.String("spans", "", "with --trace 1: write every recorded span to FILE (JSONL)")
		out     = flag.String("out", "", "also write the result with its machine fingerprint to FILE (JSON)")
		compare = flag.Bool("compare", false, "compare two --out files given as arguments; refuses differing fingerprints")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two result files")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok {
		fatalf("unknown --workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	opt := options{seed: *seed, duration: time.Duration(*seconds) * time.Second, spans: *spans}
	fp := takeFingerprint(w.name, *seed, *trace == 1)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d on %s (nproc %d, GOMAXPROCS %d, %s)\n",
		w.name, *seed, *seconds, *trace, fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion)

	run, table := w.run, endToEnd
	if *trace == 1 {
		run, table = w.traced, perLayer
	}
	rss := startRSSSampler(100 * time.Millisecond)
	oc, err := run(opt)
	rssMiB := rss.medianMiB()
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if *trace == 0 {
		oc.set("rss_mb", rssMiB)
	}
	res, err := finish(oc, table)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	for _, p := range oc.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	if *out != "" {
		if err := writeRecord(*out, record{Fingerprint: fp, Result: res}); err != nil {
			fatalf("--out: %v", err)
		}
	}
	fpLine, _ := json.Marshal(map[string]fingerprint{"fingerprint": fp}) // plain strings and ints cannot fail
	fmt.Println(string(fpLine))
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// finish turns an outcome into the result line, requiring exactly the
// metrics of the table (a missing or undeclared metric is a benchmark bug).
func finish(oc *outcome, table []metricDef) (result, error) {
	res := result{
		Correct:   len(oc.problems) == 0 && oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	if res.Attempted < 1 {
		return res, errors.New("no operations attempted")
	}
	var missing []string
	for _, d := range table {
		v, ok := oc.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range oc.values {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return res, fmt.Errorf("metric set mismatch: missing %v, undeclared %v", missing, extra)
	}
	return res, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
