package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint names the host a result came from. Results from different
// fingerprints are not comparable.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s", f.CPUModel, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain diffs two --out reports of one workload metric by metric.
// Reports from different host fingerprints are refused. When exactly one
// of the two is a traced run, the end-to-end differences are the tracing
// overhead.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b *report
		if b, err = readReport(args[1]); err == nil {
			return compareReports(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func compareReports(a, b *report) int {
	if a.Workload != b.Workload {
		fmt.Fprintf(os.Stderr, "perfbench compare: workloads differ (%s vs %s)\n", a.Workload, b.Workload)
		return 2
	}
	if a.Fingerprint != b.Fingerprint {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare results from different hosts:\n  old: %s\n  new: %s\n", a.Fingerprint, b.Fingerprint)
		return 2
	}
	what := "change"
	if a.Trace != b.Trace {
		what = "tracing overhead"
		if a.Trace {
			a, b = b, a
		}
	}
	fmt.Printf("workload %s: %s, old %s (trace %v), new (trace %v)\n", a.Workload, what, a.Fingerprint, a.Trace, b.Trace)
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Metrics[n], b.Metrics[n]
		pct := 0.0
		if x.Value != 0 {
			pct = 100 * (y.Value - x.Value) / x.Value
		}
		fmt.Printf("  %-32s %12.6g -> %12.6g %-7s %+7.1f%%\n", n, x.Value, y.Value, x.Unit, pct)
	}
	return 0
}
