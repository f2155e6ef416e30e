package perfbench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"pier"
	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/intern"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/serve"
	"pier/internal/storage"
	"pier/internal/stream"
)

// Layer labels for CPU profiles: `go tool pprof -tagfocus layer=core.dequeue`
// keeps one layer's samples.
var (
	lblHarness = layerLabel("harness")
	lblStream  = layerLabel("stream")
	lblQuery   = layerLabel("query")
	lblDequeue = layerLabel("core.dequeue")
	lblUpdate  = layerLabel("core.update_index")
	lblTick    = layerLabel("core.tick")
)

func layerLabel(layer string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("layer", layer))
}

// inLayer runs f under the layer's profile label and returns how long it took.
func inLayer(layer string, f func()) time.Duration {
	pprof.SetGoroutineLabels(layerLabel(layer))
	defer pprof.SetGoroutineLabels(lblHarness)
	t := time.Now()
	f()
	return time.Since(t)
}

// coreTrace decorates a strategy: it times every call into core and labels
// it for the CPU profile. The pipeline goroutine is its only caller, and the
// harness reads it after Stop.
type coreTrace struct {
	inner core.Persistent
	k     *obsv.Gauge // the pipeline's live K, set at the start of each batch

	dequeue, update, tick    time.Duration
	dequeued, updates, ticks int
	pendingPeak              int
	// A batch is a run of Dequeue calls; its K is read when it begins.
	inBatch       bool
	batches, kSum int
}

func (t *coreTrace) Name() string { return t.inner.Name() }

func (t *coreTrace) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	t.inBatch = false
	lbl := lblUpdate
	if len(delta) == 0 {
		lbl = lblTick
	}
	pprof.SetGoroutineLabels(lbl)
	start := time.Now()
	cost := t.inner.UpdateIndex(col, delta)
	elapsed := time.Since(start)
	pprof.SetGoroutineLabels(lblStream)
	if len(delta) == 0 {
		t.ticks++
		t.tick += elapsed
	} else {
		t.updates++
		t.update += elapsed
	}
	t.pendingPeak = max(t.pendingPeak, t.inner.Pending())
	return cost
}

func (t *coreTrace) Dequeue() (metablocking.Comparison, bool) {
	if !t.inBatch {
		t.inBatch = true
		t.batches++
		t.kSum += int(t.k.Value())
	}
	pprof.SetGoroutineLabels(lblDequeue)
	start := time.Now()
	c, ok := t.inner.Dequeue()
	t.dequeue += time.Since(start)
	pprof.SetGoroutineLabels(lblStream)
	if ok {
		t.dequeued++
	}
	return c, ok
}

func (t *coreTrace) Pending() int {
	t.inBatch = false
	return t.inner.Pending()
}

func (t *coreTrace) SaveState(w io.Writer) error { return t.inner.SaveState(w) }
func (t *coreTrace) LoadState(r io.Reader) error { return t.inner.LoadState(r) }

// tracedSystem is the pipeline pier.NewPipeline builds, assembled from its
// layers so the strategy can be decorated. The cross-check against the
// untraced run proves the assembly equivalent.
type tracedSystem struct {
	live   *stream.Live
	gate   *serve.Gate
	topK   int
	nextID int
}

func toInternal(pr pier.Profile, id int) *profile.Profile {
	src := profile.SourceA
	if pr.SourceB {
		src = profile.SourceB
	}
	attrs := make([]profile.Attribute, len(pr.Attributes))
	for i, a := range pr.Attributes {
		attrs[i] = profile.Attribute{Name: a.Name, Value: a.Value}
	}
	return &profile.Profile{ID: id, Source: src, EntityKey: pr.Key, Attributes: attrs}
}

func (s *tracedSystem) push(inc []pier.Profile) error {
	internal := make([]*profile.Profile, len(inc))
	for i, pr := range inc {
		internal[i] = toInternal(pr, s.nextID)
		s.nextID++
	}
	return s.live.Push(internal)
}

func (s *tracedSystem) query(probe pier.Profile) (answer, error) {
	release, err := s.gate.Admit("")
	if err != nil {
		return answer{}, err
	}
	defer release()
	ans, err := s.live.Query(context.Background(), toInternal(probe, -1), stream.QueryOptions{TopK: s.topK})
	if err != nil {
		return answer{}, err
	}
	a := answer{cands: make([]candidate, len(ans.Candidates)), considered: ans.Considered, elapsed: ans.Elapsed}
	for i, c := range ans.Candidates {
		a.cands[i] = candidate{id: c.ID, weight: c.Weight, sim: c.Similarity, match: c.Match, err: c.Err}
	}
	return a, nil
}

func (s *tracedSystem) stop() (int, int) {
	res := s.live.Stop()
	return res.Comparisons, res.Matches
}

// newStrategy builds the strategy pier.Options selects, for the options the
// workloads use (default tuning, one of the three PIER algorithms).
func newStrategy(o pier.Options, reg *obsv.Registry) (core.Persistent, error) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = o.Parallelism
	cfg.Metrics = reg
	switch o.Algorithm {
	case "", pier.IPES:
		return core.NewIPES(cfg), nil
	case pier.IPBS:
		return core.NewIPBS(cfg), nil
	case pier.IPCS:
		return core.NewIPCS(cfg), nil
	}
	return nil, fmt.Errorf("traced run does not support algorithm %q", o.Algorithm)
}

// layers is what the traced run measured beside the sample.
type layers struct {
	core     *coreTrace
	reg      *obsv.Registry
	executed []uint64
	rt       [3]float64 // runtime deltas: alloc bytes, GC cycles, GC CPU s
	spill    int64
	ckpt     int64
	snap     *stream.SnapshotInfo
}

var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() [3]float64 {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var out [3]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// runTraced is one repetition on the decorated pipeline, driven exactly like
// the measured one, followed by a checkpoint of the stopped pipeline.
func runTraced(w workload, in *inputs, spillDir string) (*sample, *layers, error) {
	opts := w.options(in)
	reg := obsv.NewRegistry()
	strategy, err := newStrategy(opts, reg)
	if err != nil {
		return nil, nil, err
	}
	ly := &layers{core: &coreTrace{inner: strategy, k: reg.Gauge("pier_k", "")}, reg: reg}
	rec := &recorder{}
	cfg := stream.LiveConfig{
		CleanClean:   opts.CleanClean,
		MaxBlockSize: stream.DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		Scheme:       metablocking.CBS,
		TickEvery:    opts.TickEvery,
		Parallelism:  opts.Parallelism,
		Shards:       opts.Shards,
		Metrics:      reg,
		Storage:      storage.Config{Budget: opts.StorageBudget, Dir: spillDir},
		OnMatch:      func(m stream.LiveMatch) { rec.add(m.X.ID, m.Y.ID, m.Similarity) },
		OnExecuted:   func(key uint64) { ly.executed = append(ly.executed, key) },
	}
	gate := serve.NewGate(reg, serve.Config{MaxInFlight: opts.MaxInFlightQueries, Rate: opts.QueryRate, Burst: opts.QueryBurst})

	quiesce()
	before := readRuntime()
	pprof.SetGoroutineLabels(lblStream) // the pipeline's goroutines inherit it
	live := stream.LiveRun(ly.core, cfg)
	pprof.SetGoroutineLabels(lblHarness)
	defer live.Close()
	s, err := drive(w, in, &tracedSystem{live: live, gate: gate, topK: opts.QueryTopK}, rec, threshold(opts))
	after := readRuntime()
	for i := range ly.rt {
		ly.rt[i] = after[i] - before[i]
	}
	ly.spill = dirBytes(spillDir)
	if err != nil {
		return s, ly, err
	}

	var buf bytes.Buffer
	var n int64
	s.ckpt = append(s.ckpt, inLayer("snapshot.encode", func() { n, err = live.Checkpoint(&buf) }).Seconds())
	s.ckptBytes, ly.ckpt = n, n
	if err != nil {
		return s, ly, fmt.Errorf("checkpoint: %w", err)
	}
	if ly.snap, err = stream.InspectSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		return s, ly, fmt.Errorf("inspect checkpoint: %w", err)
	}
	if ly.snap.Comparisons != s.cmps || ly.snap.Matches != s.matches || ly.snap.Profiles != s.profiles {
		return s, ly, fmt.Errorf("checkpoint holds %d comparisons, %d matches, %d profiles; the run had %d, %d, %d",
			ly.snap.Comparisons, ly.snap.Matches, ly.snap.Profiles, s.cmps, s.matches, s.profiles)
	}
	return s, ly, nil
}

// replay is the blocking layer replayed alone: the workload's increments
// through PrepareBatch, AddBatchPrepared and PublishSnapshot, as the live
// loop calls them.
type replay struct {
	col                   *blocking.Collection
	prepare, add, publish time.Duration
	residentPeak          int64
}

func replayBlocking(in *inputs, opts pier.Options, scfg storage.Config) *replay {
	r := &replay{col: blocking.NewCollectionStorage(in.ds.CleanClean, stream.DefaultMaxBlockSize, nil, opts.Shards, scfg)}
	workers := pool.New(opts.Parallelism)
	r.col.PublishSnapshot()
	next := 0
	for _, inc := range in.incs {
		internal := make([]*profile.Profile, len(inc))
		for i, pr := range inc {
			internal[i] = toInternal(pr, next)
			next++
		}
		var syms [][]intern.Sym
		r.prepare += inLayer("blocking.prepare", func() { syms = r.col.PrepareBatch(internal) })
		r.add += inLayer("blocking.add", func() { r.col.AddBatchPrepared(internal, syms, workers) })
		r.publish += inLayer("blocking.publish", r.col.PublishSnapshot)
		r.residentPeak = max(r.residentPeak, r.col.StorageResidentBytes())
	}
	return r
}

// tracedLedger is the per-layer run: one untraced repetition, one traced
// repetition of the same inputs (whose totals must agree), then replays of
// single layers. It writes one CPU profile per workload, labelled by layer.
func tracedLedger(out io.Writer, w workload, seed int64, outdir string) (*result, error) {
	in := w.setup(seed * datasets)
	fmt.Fprintf(out, "# inputs: %s, %d increments\n", in.ds, len(in.incs))
	if err := warmUp(w, seed); err != nil {
		return nil, err
	}
	base, err := runPublic(w, in)
	if err != nil {
		return nil, fmt.Errorf("untraced run: incorrect output: %w", err)
	}

	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	spillDir, err := os.MkdirTemp(outdir, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)
	profPath := filepath.Join(outdir, w.name+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	pprof.SetGoroutineLabels(lblHarness)
	s, ly, err := runTraced(w, in, spillDir)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, fmt.Errorf("traced run: incorrect output: %w", err)
	}
	opts := w.options(in)
	mem := replayBlocking(in, opts, storage.Config{})
	var budgeted *replay
	if opts.StorageBudget > 0 {
		post := opts.StorageBudget - opts.StorageBudget/4 // the posting share of the pipeline's budget
		budgeted = replayBlocking(in, opts, storage.Config{Budget: post, Dir: spillDir})
	}
	var edges int
	kern := &metablocking.Kernel{}
	candidates := inLayer("metablocking.candidates", func() {
		var buf []*blocking.Block
		for _, id := range mem.col.ProfileIDs() {
			p := mem.col.Profile(id)
			buf = mem.col.AppendBlocksOf(id, buf[:0])
			edges += len(kern.Candidates(mem.col, p, buf, metablocking.CBS))
		}
	})
	matcher := match.NewMatcher(match.JS)
	var replayMatches int
	compare := inLayer("match.compare", func() {
		for _, key := range ly.executed {
			x, y := profile.SplitPairKey(key)
			if matcher.Match(mem.col.Profile(x), mem.col.Profile(y)) {
				replayMatches++
			}
		}
	})
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# CPU profile by layer: go tool pprof -tags %s (or -tagfocus layer=core.dequeue)\n", profPath)

	res := &result{Correct: true, Attempted: base.attempted + s.attempted, Failed: base.failed + s.failed, Metrics: map[string]metric{}}
	bad := crossCheck(w, base, s)
	if bad == nil && (replayMatches != s.matches || len(ly.executed) != s.cmps) {
		bad = fmt.Errorf("match replay found %d matches in %d executed pairs; the run counted %d in %d",
			replayMatches, len(ly.executed), s.matches, s.cmps)
	}
	basePC, _ := base.pc()
	tracedPC, _ := s.pc()
	fmt.Fprintf(out, "# untraced: %d comparisons, %d matches, pc %.4f, wall %.3fs; traced: %d, %d, pc %.4f, wall %.3fs\n",
		base.cmps, base.matches, basePC, base.wall.Seconds(), s.cmps, s.matches, tracedPC, s.wall.Seconds())
	fmt.Fprintf(out, "# tracing overhead: wall %+.3fs (%+.1f%%), drain %+.3fs\n",
		(s.wall - base.wall).Seconds(), 100*(s.wall.Seconds()/base.wall.Seconds()-1), (s.drain - base.drain).Seconds())

	c := ly.core
	reg := ly.reg
	batch := reg.Histogram("pier_batch_size", "", nil)
	busy := reg.Histogram("pier_match_seq_seconds", "", nil).Sum() + reg.Histogram("pier_match_par_seconds", "", nil).Sum()
	rejected := reg.Counter("pier_query_rejected_overload_total", "").Value() + reg.Counter("pier_query_rejected_ratelimit_total", "").Value()
	var addOverhead float64
	resident := mem.residentPeak
	if budgeted != nil {
		addOverhead = (budgeted.add - mem.add).Seconds()
		resident = budgeted.residentPeak
	}
	rows := []struct {
		name, unit string
		v          float64
	}{
		{"core.dequeue_s", "s", c.dequeue.Seconds()},
		{"core.dequeued", "count", float64(c.dequeued)},
		{"core.update_index_s", "s", c.update.Seconds()},
		{"core.update_index_calls", "count", float64(c.updates)},
		{"core.tick_s", "s", c.tick.Seconds()},
		{"core.ticks", "count", float64(c.ticks)},
		{"core.pending_peak", "count", float64(c.pendingPeak)},
		{"stream.ingest_s", "s", reg.Histogram("pier_ingest_seconds", "", nil).Sum()},
		{"stream.match_busy_s", "s", busy},
		{"stream.batches", "count", float64(batch.Count())},
		{"stream.batch_size_mean", "count", finite(batch.Mean())},
		{"stream.k_mean", "count", float64(c.kSum) / float64(max(1, c.batches))},
		{"stream.push_blocked_s", "s", s.pushBlocked.Seconds()},
		{"stream.batch_yield", "ratio", float64(s.cmps) / float64(max(1, c.dequeued))},
		{"runtime.alloc_mb", "MB", ly.rt[0] / (1 << 20)},
		{"runtime.gc_cycles", "count", ly.rt[1]},
		{"runtime.gc_cpu_s", "s", ly.rt[2]},
		{"blocking.prepare_s", "s", mem.prepare.Seconds()},
		{"blocking.add_s", "s", mem.add.Seconds()},
		{"blocking.publish_s", "s", mem.publish.Seconds()},
		{"blocking.blocks", "count", float64(mem.col.NumBlocks())},
		{"intern.symbols", "count", float64(mem.col.Interner().Len())},
		{"metablocking.candidates_s", "s", candidates.Seconds()},
		{"metablocking.edges", "count", float64(edges)},
		{"match.compare_s", "s", compare.Seconds()},
		{"match.comparisons", "count", float64(len(ly.executed))},
		{"match.yield", "ratio", float64(replayMatches) / float64(max(1, len(ly.executed)))},
		{"storage.resident_mb_peak", "MB", float64(resident) / (1 << 20)},
		{"storage.spill_mb", "MB", float64(ly.spill) / (1 << 20)},
		{"storage.add_overhead_s", "s", addOverhead},
		{"serve.admitted", "count", float64(reg.Counter("pier_query_accepted_total", "").Value())},
		{"serve.rejected", "count", float64(rejected)},
		{"query.service_p99_ms", "ms", finite(quantile(s.service, tailQ(len(s.service))))},
		{"query.considered_mean", "count", float64(s.considered) / float64(max(1, s.answered))},
		{"snapshot.bytes_per_profile", "bytes", float64(ly.ckpt) / float64(max(1, s.profiles))},
		{"snapshot.profiles", "count", float64(ly.snap.Profiles)},
		{"snapshot.executed", "count", float64(len(ly.snap.Executed))},
		{"snapshot.retry_pending", "count", float64(ly.snap.RetryPending)},
	}
	largest, largestV := "", -1.0
	for _, r := range rows {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", r.name, r.v, r.unit)
		res.Metrics[r.name] = metric{Value: r.v, Unit: r.unit}
		if r.unit == "s" && r.name != "stream.push_blocked_s" && r.name != "runtime.gc_cpu_s" && r.v > largestV {
			largest, largestV = r.name, r.v
		}
	}
	fmt.Fprintf(out, "# largest layer time: %s (%.3fs)\n", largest, largestV)
	if budgeted != nil {
		if err := budgeted.col.Close(); err != nil {
			return nil, err
		}
	}
	if bad != nil {
		res.Correct = false
		return res, fmt.Errorf("incorrect output: %w", bad)
	}
	return res, nil
}

// crossCheck compares the traced repetition with the untraced one. Matches
// and pc_final must be equal. So must comparisons on a one-shot resolve;
// on a paced stream they depend on how much leftover work runs between
// increments, and may differ by paceTolerance.
func crossCheck(w workload, base, traced *sample) error {
	if base.matches != traced.matches || base.found != traced.found {
		return fmt.Errorf("traced run found %d matches (%d true), untraced %d (%d true)", traced.matches, traced.found, base.matches, base.found)
	}
	diff := float64(traced.cmps-base.cmps) / float64(max(1, base.cmps))
	if (w.rate == 0 && traced.cmps != base.cmps) || diff > paceTolerance || diff < -paceTolerance {
		return fmt.Errorf("traced run executed %d comparisons, untraced %d", traced.cmps, base.cmps)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// paceTolerance bounds the relative difference in executed comparisons
// between two runs of one paced stream.
const paceTolerance = 0.005
