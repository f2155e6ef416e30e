// Command pierscale records the multi-core scaling behavior of the two
// parallel hot paths this repo optimizes: candidate generation (the pool's
// dynamic scheduler) and the online query path (RCU snapshots), as JSON for
// the benchmark artifacts (BENCH_scaling.json).
//
//	pierscale -dataset movies -scale 0.1 -workers 1,2,4 -qduration 2s
//
// Phase A sweeps worker counts over a full ingest (blocking + candidate
// generation) of a zipf-vocabulary dataset and records wall time, the
// pier_gen_seconds histogram sum, and the modeled generation cost — which
// must be identical across worker counts (the dynamic scheduler is
// deterministic), so the artifact doubles as an equivalence check.
//
// Phase B measures query throughput *under concurrent ingest*: a feeder
// pushes increments with pierload's arrival shapes while closed-loop readers
// hammer Live.Query against the published snapshots.
//
// GOMAXPROCS is set to each cell's worker count. On a machine with fewer
// physical CPUs than workers the sweep time-shares instead of scaling; the
// artifact records runtime.NumCPU so readers can judge the curves.
//
// Exit codes: 0 on success, 2 for usage errors, 1 for runtime failures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/obsv"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/stream"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the JSON artifact written to -out.
type report struct {
	Meta         meta        `json:"meta"`
	GenScaling   []genCell   `json:"gen_scaling"`
	QueryScaling []queryCell `json:"query_scaling"`
}

type meta struct {
	Dataset      string  `json:"dataset"`
	Scale        float64 `json:"scale"`
	Seed         int64   `json:"seed"`
	Increments   int     `json:"increments"`
	Shards       int     `json:"shards"`
	Workers      []int   `json:"workers"`
	Readers      int     `json:"readers"`
	Shape        string  `json:"shape"`
	QDurationSec float64 `json:"qduration_s"`
	TopK         int     `json:"topk"`
	NumCPU       int     `json:"num_cpu"`
	Note         string  `json:"note,omitempty"`
}

// genCell is one Phase A measurement: a full ingest at one worker count.
type genCell struct {
	Workers     int     `json:"workers"`
	ElapsedSec  float64 `json:"elapsed_s"`
	GenSec      float64 `json:"gen_seconds_sum"`
	ModeledSec  float64 `json:"modeled_cost_s"`
	Speedup     float64 `json:"speedup_vs_w1"`
	Comparisons int     `json:"queued_comparisons"`
	ProfilesIdx int     `json:"profiles_indexed"`
}

// queryCell is one Phase B measurement: closed-loop query throughput under
// concurrent ingest at one worker count.
type queryCell struct {
	Workers      int     `json:"workers"`
	Readers      int     `json:"readers"`
	DurationSec  float64 `json:"duration_s"`
	Queries      int     `json:"queries"`
	QPS          float64 `json:"qps"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	IngestedProf int     `json:"profiles_ingested_during_window"`
}

// percentile returns the exact q-quantile (nearest-rank) of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parseWorkers parses a comma-separated worker-count list like "1,2,4".
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty worker list")
	}
	return out, nil
}

// run is the testable body of the command, per the cmd convention.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pierscale", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dsName := fs.String("dataset", "movies", "synthetic dataset: da, movies, census, or webdata")
	scale := fs.Float64("scale", 0.1, "dataset scale factor")
	seed := fs.Int64("seed", 1, "deterministic seed for data and arrivals")
	nIncs := fs.Int("increments", 40, "number of increments to split the stream into")
	workersFlag := fs.String("workers", "1,2,4", "comma-separated worker counts to sweep")
	shards := fs.Int("shards", 0, "blocking index shard count (0 = heuristic)")
	readers := fs.Int("readers", 4, "closed-loop query goroutines in the query phase")
	qduration := fs.Duration("qduration", 2*time.Second, "measurement window per query cell")
	ingestRate := fs.Float64("ingest-rate", 50, "feeder rate in increments per second during the query phase")
	shapeFlag := fs.String("shape", "uniform", "feeder arrival shape: uniform, bursty, or zipf")
	topK := fs.Int("topk", 0, "candidates matched per query (0 = default 10, negative = all)")
	out := fs.String("out", "BENCH_scaling.json", "output JSON artifact (empty writes to stdout)")
	repeat := fs.Int("repeat", 3, "measured runs per gen cell (best is recorded)")
	quick := fs.Bool("quick", false, "CI smoke mode: tiny dataset, short windows")
	verbose := fs.Bool("v", false, "print per-cell progress")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pierscale:", err)
		return exitRuntime
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "pierscale:", msg)
		return exitUsage
	}

	if *quick {
		*scale = 0.02
		*nIncs = 8
		*qduration = 300 * time.Millisecond
		*workersFlag = "1,2"
		*repeat = 1
	}
	if *repeat < 1 {
		*repeat = 1
	}
	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		return usage(err.Error())
	}
	shape, err := dataset.ParseShape(*shapeFlag)
	if err != nil {
		return usage(err.Error())
	}
	var d *dataset.Dataset
	switch *dsName {
	case "da":
		d = dataset.DA(*scale, *seed)
	case "movies":
		d = dataset.Movies(*scale, *seed)
	case "census":
		d = dataset.Census(*scale, *seed)
	case "webdata":
		d = dataset.WebData(*scale, *seed)
	default:
		return usage(fmt.Sprintf("unknown dataset %q (want da, movies, census, or webdata)", *dsName))
	}
	if *readers < 1 {
		return usage("-readers must be positive")
	}
	incs := d.Increments(*nIncs)

	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)

	rep := report{
		Meta: meta{
			Dataset:      *dsName,
			Scale:        *scale,
			Seed:         *seed,
			Increments:   len(incs),
			Shards:       *shards,
			Workers:      workers,
			Readers:      *readers,
			Shape:        string(shape),
			QDurationSec: qduration.Seconds(),
			TopK:         *topK,
			NumCPU:       runtime.NumCPU(),
		},
	}
	maxW := 0
	for _, w := range workers {
		if w > maxW {
			maxW = w
		}
	}
	if runtime.NumCPU() < maxW {
		rep.Meta.Note = fmt.Sprintf(
			"host has %d CPU(s) for a %d-worker sweep: cells beyond the CPU count time-share, so wall-clock speedups understate what the same code does on real cores",
			runtime.NumCPU(), maxW)
	}

	// Phase A: candidate-generation scaling. Each cell ingests the whole
	// dataset through a fresh collection + strategy at one worker count and
	// measures the wall time of blocking + generation — repeated, best run
	// recorded, after one untimed warmup so the first cell doesn't absorb
	// page-fault and allocator warmup. The modeled cost is the determinism
	// cross-check: the dynamic scheduler must produce the same comparisons
	// (hence the same modeled cost) at every worker count.
	genIngest := func(w int) (elapsed time.Duration, modeled time.Duration, genSum float64, queued int) {
		reg := obsv.NewRegistry()
		cfg := core.DefaultConfig()
		cfg.Parallelism = w
		cfg.Metrics = reg
		strategy := core.NewIPES(cfg)
		col := blocking.NewCollectionSharded(d.CleanClean, 0, nil, *shards)
		ingestPool := pool.New(w)
		t0 := time.Now()
		for _, inc := range incs {
			col.AddBatch(inc, ingestPool)
			modeled += strategy.UpdateIndex(col, inc)
		}
		elapsed = time.Since(t0)
		return elapsed, modeled, reg.Histogram("pier_gen_seconds", "", nil).Sum(), strategy.Pending()
	}
	runtime.GOMAXPROCS(workers[0])
	genIngest(workers[0]) // warmup, untimed
	var baseElapsed time.Duration
	var baseModeled time.Duration
	for _, w := range workers {
		runtime.GOMAXPROCS(w)
		var best genCell
		for rr := 0; rr < *repeat; rr++ {
			elapsed, modeled, genSum, queued := genIngest(w)
			if rr == 0 || elapsed < time.Duration(best.ElapsedSec*float64(time.Second)) {
				best = genCell{
					Workers:     w,
					ElapsedSec:  elapsed.Seconds(),
					GenSec:      genSum,
					ModeledSec:  modeled.Seconds(),
					Comparisons: queued,
					ProfilesIdx: d.NumProfiles(),
				}
			}
			if w == workers[0] && rr == 0 {
				baseModeled = modeled
			}
			if modeled != baseModeled {
				return fail(fmt.Errorf("phase A: modeled cost diverged at %d workers (%v vs %v) — scheduler is not deterministic", w, modeled, baseModeled))
			}
		}
		if w == workers[0] {
			baseElapsed = time.Duration(best.ElapsedSec * float64(time.Second))
		}
		best.Speedup = baseElapsed.Seconds() / best.ElapsedSec
		rep.GenScaling = append(rep.GenScaling, best)
		if *verbose {
			fmt.Fprintf(stdout, "pierscale: gen w=%d elapsed=%.1fms gen=%0.3fs speedup=%.2fx\n",
				w, best.ElapsedSec*1e3, best.GenSec, best.Speedup)
		}
	}

	// Phase B: query throughput under concurrent ingest at each worker count.
	for _, w := range workers {
		cell, err := queryPhase(d, incs, w, *shards, *readers, *topK, *qduration, shape, *ingestRate, *seed)
		if err != nil {
			return fail(err)
		}
		rep.QueryScaling = append(rep.QueryScaling, cell)
		if *verbose {
			fmt.Fprintf(stdout, "pierscale: query w=%d qps=%.0f p50=%.2fms p99=%.2fms\n",
				w, cell.QPS, cell.P50MS, cell.P99MS)
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		stdout.Write(blob)
		return exitOK
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return fail(err)
	}
	last := rep.QueryScaling[len(rep.QueryScaling)-1]
	fmt.Fprintf(stdout, "pierscale: wrote %s (%.0f queries/s at %d workers)\n",
		*out, last.QPS, last.Workers)
	return exitOK
}

// queryPhase runs one Phase B cell: pre-ingest half the dataset, then measure
// closed-loop query throughput for the window while a feeder keeps pushing —
// first the remaining real increments, then re-keyed clones so ingest
// pressure never stops before the window ends.
func queryPhase(d *dataset.Dataset, incs [][]*profile.Profile, w, shards, readers, topK int, window time.Duration, shape dataset.Shape, rate float64, seed int64) (queryCell, error) {
	runtime.GOMAXPROCS(w)
	cfg := core.DefaultConfig()
	cfg.Parallelism = w
	l := stream.LiveRun(core.NewIPES(cfg), stream.LiveConfig{
		CleanClean:  d.CleanClean,
		Matcher:     match.NewMatcher(match.JS),
		TickEvery:   5 * time.Millisecond,
		Parallelism: w,
		Shards:      shards,
	})
	cell := queryCell{Workers: w, Readers: readers, DurationSec: window.Seconds()}

	// Pre-ingest the first half so queries have a populated index.
	half := len(incs) / 2
	if half == 0 {
		half = len(incs)
	}
	for _, inc := range incs[:half] {
		if err := l.Push(inc); err != nil {
			return cell, err
		}
	}
	for l.Snapshot().Increments < half {
		time.Sleep(time.Millisecond)
	}
	startProfiles := l.Snapshot().Profiles

	// Feeder: keep pushing for the whole window — the remaining real
	// increments first, then fresh-ID clones — paced by the arrival shape.
	done := make(chan struct{})
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		gaps := dataset.Arrivals(shape, 256, rate, seed+7)
		nextID := d.NumProfiles()
		gi, ii := 0, half
		for {
			select {
			case <-done:
				return
			case <-time.After(gaps[gi%len(gaps)]):
			}
			gi++
			var inc []*profile.Profile
			if ii < len(incs) {
				inc = incs[ii]
				ii++
			} else {
				// Clone a wrapped-around increment under fresh IDs: same
				// token distribution, never a duplicate profile ID.
				src := incs[ii%len(incs)]
				ii++
				inc = make([]*profile.Profile, len(src))
				for j, p := range src {
					inc[j] = &profile.Profile{ID: nextID, Source: p.Source, EntityKey: p.EntityKey, Attributes: p.Attributes}
					nextID++
				}
			}
			if err := l.Push(inc); err != nil {
				return
			}
		}
	}()

	// Closed-loop readers: each fires the next query as soon as the previous
	// one answers, probing random indexed profiles.
	var mu sync.Mutex
	var latencies []time.Duration
	var readWG sync.WaitGroup
	deadline := time.Now().Add(window)
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(seed int64) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var local []time.Duration
			for time.Now().Before(deadline) {
				src := d.Profiles[rng.Intn(len(d.Profiles))]
				probe := &profile.Profile{ID: -1, Source: src.Source, Attributes: src.Attributes}
				t0 := time.Now()
				if _, err := l.Query(context.Background(), probe, stream.QueryOptions{TopK: topK}); err != nil {
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(seed + int64(r) + 11)
	}
	readWG.Wait()
	close(done)
	feedWG.Wait()
	cell.IngestedProf = l.Snapshot().Profiles - startProfiles
	// Interrupt rather than Stop: draining every queued comparison is the
	// stream's job, not the benchmark's.
	l.Interrupt()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	cell.Queries = len(latencies)
	cell.QPS = float64(len(latencies)) / window.Seconds()
	cell.P50MS = ms(percentile(latencies, 0.50))
	cell.P99MS = ms(percentile(latencies, 0.99))
	return cell, nil
}
