// Package perfbench is PIER's performance ledger: one command runs a workload
// against the public API and prints every end-to-end metric by name with its
// unit; a traced run of the same workload splits it into per-layer metrics.
// The harness lives in _test.go files so that it can reach the internal
// layers it times without adding edges to the module's import graph. See
// README.md for the workloads and the metric map.
//
//	python3 perfbench/run.py --workload resolve-da --seed 1 --seconds 20 --trace 0
package perfbench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

var (
	flagWorkload = flag.String("workload", "", "ledger workload to run (resolve-da, stream-census, query-movies); empty runs the tests")
	flagSeed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	flagSeconds  = flag.Float64("seconds", 20, "how long one run measures: repetitions start until this much time has passed")
	flagTrace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end one")
	flagOutdir   = flag.String("outdir", ".bench_build", "directory for CPU profiles and spill files")
)

// runDeadline bounds one invocation; the ledger must exit well within three
// minutes.
const runDeadline = 170 * time.Second

func TestMain(m *testing.M) {
	flag.Parse()
	if *flagWorkload == "" {
		os.Exit(m.Run())
	}
	w, ok := findWorkload(*flagWorkload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *flagWorkload)
		os.Exit(2)
	}
	os.Exit(ledgerMain(os.Stdout, w, *flagSeed, *flagSeconds, *flagTrace != 0, *flagOutdir))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the ledger's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledgerMain runs one workload and prints its ledger, the result line last.
// It returns the process exit code.
func ledgerMain(out io.Writer, w workload, seed int64, seconds float64, trace bool, outdir string) int {
	name := w.name
	timer := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", name, runDeadline)
		os.Exit(1)
	})
	defer timer.Stop()
	printHost(out, w, seed)
	var res *result
	var err error
	if trace {
		res, err = tracedLedger(out, w, seed, outdir)
	} else {
		res, err = measuredLedger(out, w, seed, time.Duration(seconds*float64(time.Second)))
	}
	code := 0
	if err != nil {
		// An incorrect output still prints its result line, marked
		// incorrect; a run that could not measure prints none.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		code = 1
	}
	if res == nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return code
}

func printHost(out io.Writer, w workload, seed int64) {
	fmt.Fprintf(out, "# workload %s seed %d: %s\n", w.name, seed, w.why)
	fmt.Fprintf(out, "# host: nproc %d, GOMAXPROCS %d, %s %s/%s, cpu %q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeSetup builds the inputs of each of the run's datasets setupReps times,
// and returns the last builds with every build time.
func timeSetup(w workload, seed int64) ([]*inputs, []float64) {
	var ins []*inputs
	var times []float64
	for k := 0; k < datasets; k++ {
		var in *inputs
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			t := time.Now()
			in = w.setup(seed*datasets + int64(k))
			times = append(times, time.Since(t).Seconds())
		}
		ins = append(ins, in)
	}
	return ins, times
}

// measuredLedger is the end-to-end run: repetitions through the public API,
// each checked for correct output, for as long as another repetition still
// fits in the measuring time (at least one). A one-shot workload must give
// the same totals whenever a dataset comes round again.
func measuredLedger(out io.Writer, w workload, seed int64, budget time.Duration) (*result, error) {
	ins, setup := timeSetup(w, seed)
	for _, in := range ins {
		fmt.Fprintf(out, "# inputs: %s, %d increments\n", in.ds, len(in.incs))
	}
	if err := warmUp(w, seed); err != nil {
		return nil, err
	}
	var reps []*sample
	start := time.Now()
	var last time.Duration
	for len(reps) == 0 || time.Since(start)+last <= budget {
		i := len(reps)
		t := time.Now()
		s, err := runPublic(w, ins[i%datasets])
		if err == nil && w.rate == 0 && i >= datasets {
			if prev := reps[i-datasets]; s.cmps != prev.cmps || s.matches != prev.matches {
				err = fmt.Errorf("%d comparisons and %d matches, repetition %d of the same dataset had %d and %d",
					s.cmps, s.matches, i-datasets+1, prev.cmps, prev.matches)
			}
		}
		if err != nil && s == nil {
			return nil, err
		}
		if err != nil {
			res := endToEnd(out, setup, append(reps, s))
			res.Correct = false
			return res, fmt.Errorf("repetition %d: incorrect output: %w", i+1, err)
		}
		last = time.Since(t)
		pc, _ := s.pc()
		fmt.Fprintf(out, "# rep %d: dataset %d, %d comparisons, %d matches, pc %.4f, wall %.3fs, drain %.3fs, match p50 %.1fms, rep %.3fs\n",
			i+1, i%datasets, s.cmps, s.matches, pc, s.wall.Seconds(), s.drain.Seconds(), quantile(s.matchLat, 0.5), last.Seconds())
		reps = append(reps, s)
	}
	return endToEnd(out, setup, reps), nil
}

// warmUp runs the workload once at tiny scale, untimed, so that the first
// measured repetition does not pay for the process's first run of its code.
func warmUp(w workload, seed int64) error {
	t := tiny(w)
	if _, err := runPublic(t, t.setup(seed)); err != nil {
		return fmt.Errorf("warm-up: incorrect output: %w", err)
	}
	return nil
}

// endToEnd aggregates the repetitions: scalar metrics are medians over
// repetitions, latency percentiles are taken over the pooled samples.
func endToEnd(out io.Writer, setup []float64, reps []*sample) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	per := func(f func(s *sample) float64) float64 {
		xs := make([]float64, len(reps))
		for i, s := range reps {
			xs[i] = f(s)
		}
		return median(xs)
	}
	var matchLat, queryLat, pushLate, rss []float64
	for _, s := range reps {
		matchLat = append(matchLat, s.matchLat...)
		queryLat = append(queryLat, s.queryLat...)
		pushLate = append(pushLate, s.pushLate...)
		rss = append(rss, s.rss...)
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	n := len(reps)
	rows := []struct {
		name, unit string
		v          float64
		samples    int
		reported   bool // false: printed in the ledger but not in the result line
	}{
		{"setup_s", "s", median(setup), len(setup), true},
		{"resolve_profiles_per_s", "profiles/s", per(func(s *sample) float64 { return float64(s.profiles) / s.wall.Seconds() }), n, true},
		{"drain_s", "s", per(func(s *sample) float64 { return s.drain.Seconds() }), n, true},
		{"match_latency_p50_ms", "ms", quantile(matchLat, 0.5), len(matchLat), false},
		{"match_latency_p99_ms", "ms", quantile(matchLat, tailQ(len(matchLat))), len(matchLat), true},
		{"query_p50_ms", "ms", quantile(queryLat, 0.5), len(queryLat), true},
		{"query_p99_ms", "ms", quantile(queryLat, tailQ(len(queryLat))), len(queryLat), false},
		{"checkpoint_s", "s", per(func(s *sample) float64 { return slices.Min(s.ckpt) }), n, true},
		{"restore_s", "s", per(func(s *sample) float64 { return slices.Min(s.restore) }), n, true},
		{"checkpoint_mb", "MB", per(func(s *sample) float64 { return float64(s.ckptBytes) / (1 << 20) }), n, true},
		{"pc_final", "ratio", per(func(s *sample) float64 { pc, _ := s.pc(); return pc }), n, true},
		{"rss_p90_mb", "MB", quantile(rss, 0.9), len(rss), true},
		{"peak_rss_mb", "MB", reps[len(reps)-1].peakRSS, 1, false},
		{"pc_at_last_push", "ratio", per(func(s *sample) float64 { _, pc := s.pc(); return pc }), n, false},
		{"push_late_p90_ms", "ms", quantile(pushLate, tailQ(len(pushLate))), len(pushLate), false},
		{"failed_ops_ratio", "ratio", float64(res.Failed) / float64(max(1, res.Attempted)), res.Attempted, false},
	}
	for _, r := range rows {
		fmt.Fprintf(out, "%-24s %14.6g %-10s n=%d\n", r.name, r.v, r.unit, r.samples)
		if r.reported {
			res.Metrics[r.name] = metric{Value: finite(r.v), Unit: r.unit}
		}
	}
	return res
}

// tailQ is the highest of p99 and p90 that keeps at least ten samples beyond
// it; with fewer than 100 samples it falls back to the median.
func tailQ(n int) float64 {
	for _, q := range []float64{0.99, 0.9} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
