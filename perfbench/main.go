// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One process runs one named workload: it generates its inputs
// from --seed, sets up (data, the served model, an in-process HTTP server)
// several times, measures for --seconds, checks every output, and prints
// every metric named in BENCHMARK.json by name, unit and sample count. The
// last line of standard output is the machine-readable result.
//
//	go run . --workload train-sprint --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
// with the benchmark's own layer timers on, replays the serve path's
// layers on the same bodies, and reports the per-layer metrics. Run it
// from the repository root (it reads BENCHMARK.json there).
//
//	go run . compare OLD.json NEW.json
//
// diffs two reports written with --out; it refuses to compare reports
// from different host fingerprints.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// config is the part of workloads.json the benchmark runs on; the rest of
// that file documents the workloads and the layer predictions.
type config struct {
	ForestSeed        int64               `json:"forest_seed"`
	HistAccuracyFloor float64             `json:"hist_accuracy_floor"`
	Traffic           map[string]traffCfg `json:"traffic"`
	Workloads         []workloadCfg       `json:"workloads"`
}

// traffCfg is one serve traffic shape: request size, and the fixed offered
// predict rate and p99 limit of the fixed-rate phase and the ladder.
type traffCfg struct {
	RequestRows  int     `json:"request_rows"`
	Bodies       int     `json:"bodies"`
	FixedRateRPS float64 `json:"fixed_rate_rps"`
	P99LimitMS   float64 `json:"p99_limit_ms"`
}

// workloadCfg says how often a workload sets up (setup_s is the median)
// and splits its measurement into rounds; each round runs one slice of
// every section: Shares gives each load section its part of --seconds,
// spread evenly over the rounds, and RetrainCalls is the retrains per
// round.
type workloadCfg struct {
	Name         string             `json:"name"`
	SetupRepeats int                `json:"setup_repeats"`
	Rounds       int                `json:"rounds"`
	RetrainCalls int                `json:"retrain_calls"`
	Shares       map[string]float64 `json:"shares"`
}

type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metric is one reported figure; Samples is how many measurements the
// value summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// results accumulates a run's figures, operation counts and failed
// checks. A metric collects one value per round (or per build, or per
// set-up) and reports their median.
type results struct {
	vals      map[string][]float64
	units     map[string]string
	samples   map[string]int
	attempted int64
	failed    int64
	errs      []string
}

// add records one value of a metric that summarizes n measurements.
func (r *results) add(name, unit string, v float64, n int) {
	r.vals[name] = append(r.vals[name], v)
	r.units[name] = unit
	r.samples[name] += n
}

func (r *results) metrics() map[string]metric {
	out := make(map[string]metric, len(r.vals))
	for name, vs := range r.vals {
		out[name] = metric{Value: median(vs), Unit: r.units[name], Samples: r.samples[name]}
	}
	return out
}

// check records a failed correctness check when ok is false.
func (r *results) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	return ok
}

type bench struct {
	cfg     config
	wl      workloadCfg
	seed    int64
	seconds float64
	trace   bool
	procs   int
	res     *results
}

// slice is how long a timed section measures in each round.
func (b *bench) slice(section string) time.Duration {
	return time.Duration(b.wl.Shares[section] * b.seconds * float64(time.Second) / float64(b.wl.Rounds))
}

// report is the full record --out writes: the result plus the host
// fingerprint and sample counts.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Errors      []string          `json:"errors,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload name (see workloads.json)")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measurement time")
		traceOn  = flag.Int("trace", 0, "1 = layer-traced run reporting the per-layer metrics")
		out      = flag.String("out", "", "also write the full report to this file")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceOn == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, outPath string) error {
	var cfg config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return fmt.Errorf("workloads.json: %w", err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	b := &bench{
		cfg: cfg, seed: seed, seconds: seconds, trace: traced,
		procs: runtime.NumCPU(),
		res: &results{
			vals: make(map[string][]float64), units: make(map[string]string),
			samples: make(map[string]int),
		},
	}
	var fn func(*bench) error
	for _, w := range cfg.Workloads {
		if w.Name == workload {
			b.wl = w
			fn = workloadFuncs[w.Name]
		}
	}
	if fn == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := fn(b); err != nil {
		return err
	}
	b.res.add("peak_rss_mb", "MiB", peakRSSMiB(), 1)
	all := b.res.metrics()

	want := bf.EndToEnd
	if traced {
		want = bf.PerLayer
	}
	for n, m := range all {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	for _, d := range want {
		m, ok := all[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", workload, d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
	}
	fp := hostFingerprint()
	rep := report{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		Fingerprint: fp, Attempted: b.res.attempted, Failed: b.res.failed,
		Errors: b.res.errs, Metrics: all,
		Correct: len(b.res.errs) == 0 && b.res.failed == 0,
	}

	fmt.Printf("host: %s\n", fp)
	fmt.Printf("workload %s seed %d seconds %g trace %v: %d attempted, %d failed\n",
		workload, seed, seconds, traced, b.res.attempted, b.res.failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-32s %14.6g %-7s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, e := range b.res.errs {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
	if outPath != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ") // plain values: cannot fail
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}

	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]valueUnit)}
	for _, d := range want {
		m := rep.Metrics[d.Name]
		final.Metrics[d.Name] = valueUnit{m.Value, m.Unit}
	}
	line, _ := json.Marshal(final) // finite values: cannot fail
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}
