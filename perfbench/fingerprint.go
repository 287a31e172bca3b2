package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine and inputs a result was measured on.
// Results are comparable only when their fingerprints are equal.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
}

func takeFingerprint(workload string, seed uint64, traced bool) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or GOARCH where
// that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// record is what --out writes: a result with the fingerprint it was
// measured under.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func writeRecord(path string, r record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints new/old for every metric the two records share. It
// refuses records whose fingerprints differ: numbers from another machine,
// Go version, workload or seed are not comparable.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("refusing to compare: fingerprints differ:\n  %s: %+v\n  %s: %+v",
			oldPath, a.Fingerprint, newPath, b.Fingerprint)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %14s %14s %8s\n", "metric", "old", "new", "new/old")
	for _, k := range names {
		o, n := a.Result.Metrics[k], b.Result.Metrics[k]
		ratio := "-"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%.3f", n.Value/o.Value)
		}
		fmt.Fprintf(w, "%-34s %14.4f %14.4f %8s %s\n", k, o.Value, n.Value, ratio, n.Unit)
	}
	return nil
}
