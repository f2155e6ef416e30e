package perfbench

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pier"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/profile"
)

// workload is one row of the ledger: a dataset generated from the seed, the
// options the pipeline runs under, and the schedule it is pushed on.
type workload struct {
	name string
	why  string
	// gen and scale build the dataset; the pipeline only ever sees the
	// generated profiles.
	gen   func(scale float64, seed int64) *dataset.Dataset
	scale float64
	// opts are the pipeline options; CleanClean comes from the dataset.
	opts pier.Options
	// increments is the number of Push calls; 1 is a one-shot resolve.
	increments int
	// rate is the push schedule in increments per second; 0 pushes at once.
	rate float64
	// qps is the rate of open-loop point queries beside ingest, from the
	// first push until Stop returns. A workload without them (qps 0) instead
	// answers rest probes after Stop, one after the other.
	qps  float64
	rest int
	// minPC is the lowest pc_final a correct run reaches.
	minPC float64
}

const (
	// restQueries is how many probes, drawn uniformly, the stopped pipeline
	// answers in workloads without queries beside ingest.
	restQueries = 3000
	// rssEvery is the resident-set sampling period.
	rssEvery = 10 * time.Millisecond
	// ckptReps is how many checkpoints and restores each repetition times.
	// Each takes 30-250 ms, short enough for a host hiccup to double it, so
	// a repetition reports its fastest.
	ckptReps = 5
	// datasets is how many datasets a run generates from its seed;
	// repetition i runs dataset i mod datasets, so a run's medians average
	// over datasets as well as over repetitions.
	datasets = 3
	// setupReps is how often each dataset's inputs are built; setup_s is the
	// median build time.
	setupReps = 10
	// zipfSkew is the popularity skew of probe picks.
	zipfSkew = 1.2
	// probePool is the length of the seeded probe sequence; queries cycle
	// through it.
	probePool = 8192
	// compareProbes is how many probes are answered by both the checkpointed
	// and the restored pipeline, whose answers must agree.
	compareProbes = 50
)

var workloads = []workload{
	{
		name:       "resolve-da",
		why:        "one-shot batch resolve with default options, where I-PES emission does almost all of the work",
		gen:        dataset.DA,
		scale:      1,
		increments: 1,
		rest:       restQueries,
		minPC:      0.85,
	},
	{
		name:       "stream-census",
		why:        "paced Dirty-ER stream of small deltas under a 2 MB storage budget: tick refills, batch allocation, GC and disk spill",
		gen:        dataset.Census,
		scale:      0.005,
		opts:       pier.Options{Algorithm: pier.IPBS, TickEvery: time.Millisecond, StorageBudget: 2 << 20},
		increments: 100,
		rate:       20,
		rest:       restQueries,
		minPC:      0.5,
	},
	{
		name:       "query-movies",
		why:        "open-loop point queries at 400 qps beside a paced I-PCS ingest: serve admission, RCU publish and the probe path",
		gen:        dataset.Movies,
		scale:      0.2,
		opts:       pier.Options{Algorithm: pier.IPCS, TickEvery: time.Millisecond},
		increments: 100,
		rate:       25,
		qps:        400,
		minPC:      0.5,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny shrinks a workload to a few hundred profiles on a fast schedule: the
// ledger warms up on it, and its own tests run it. The options, correctness
// rules and metric set are the workload's.
func tiny(w workload) workload {
	w.scale *= 0.04
	w.increments = min(w.increments, 8)
	w.rest = min(w.rest, 40)
	if w.rate > 0 {
		w.rate = 200
	}
	return w
}

// interval is the gap between two scheduled pushes.
func (w workload) interval() time.Duration {
	if w.rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / w.rate)
}

// inputs is everything the harness derives from the seed before the clock
// starts.
type inputs struct {
	ds *dataset.Dataset
	// profiles are the public profiles by dataset ID. Key holds the decimal
	// ID, so a reported match names its profiles; the pipeline never reads
	// Key.
	profiles []pier.Profile
	incs     [][]pier.Profile
	incOf    []int32 // increment index of each profile
	probes   []int   // dataset IDs to query beside ingest, Zipf-picked
	rest     []int   // dataset IDs to probe after Stop, uniformly picked
}

func (w workload) setup(seed int64) *inputs {
	ds := w.gen(w.scale, seed)
	in := &inputs{
		ds:       ds,
		profiles: make([]pier.Profile, len(ds.Profiles)),
		incOf:    make([]int32, len(ds.Profiles)),
		probes:   make([]int, probePool),
	}
	for i, p := range ds.Profiles {
		attrs := make([]pier.Attribute, len(p.Attributes))
		for j, a := range p.Attributes {
			attrs[j] = pier.Attribute{Name: a.Name, Value: a.Value}
		}
		in.profiles[i] = pier.Profile{Key: strconv.Itoa(p.ID), SourceB: p.Source == profile.SourceB, Attributes: attrs}
	}
	n := max(1, min(w.increments, len(in.profiles)))
	size := len(in.profiles) / n
	for i := 0; i < n; i++ {
		lo, hi := i*size, (i+1)*size
		if i == n-1 {
			hi = len(in.profiles)
		}
		in.incs = append(in.incs, in.profiles[lo:hi])
		for id := lo; id < hi; id++ {
			in.incOf[id] = int32(i)
		}
	}
	z := dataset.NewZipfPicker(len(in.profiles), zipfSkew, seed+1)
	for i := range in.probes {
		in.probes[i] = z.Pick()
	}
	u := rand.New(rand.NewSource(seed + 2))
	in.rest = make([]int, w.rest)
	for i := range in.rest {
		in.rest[i] = u.Intn(len(in.profiles))
	}
	return in
}

// keyID is the dataset ID a public profile's Key holds (-1 if none).
func keyID(p pier.Profile) int {
	id, err := strconv.Atoi(p.Key)
	if err != nil {
		return -1
	}
	return id
}

// options returns the pipeline options for these inputs.
func (w workload) options(in *inputs) pier.Options {
	o := w.opts
	o.CleanClean = in.ds.CleanClean
	return o
}

// threshold is the matcher's duplicate threshold under the options.
func threshold(o pier.Options) float64 {
	if o.MatchThreshold > 0 {
		return o.MatchThreshold
	}
	return match.DefaultThreshold
}

// system is the pipeline under test as drive sees it: the public
// pier.Pipeline in measured runs, the decorated stream.Live in traced ones.
type system interface {
	push(inc []pier.Profile) error
	query(probe pier.Profile) (answer, error)
	// stop drains the pipeline and returns its executed comparisons and
	// matches.
	stop() (cmps, matches int)
}

type answer struct {
	cands      []candidate
	considered int
	elapsed    time.Duration
}

type candidate struct {
	id     int
	weight float64
	sim    float64
	match  bool
	err    error
}

// matchEvent is one OnMatch report, timed from the run's start.
type matchEvent struct {
	x, y int
	sim  float64
	at   time.Duration
}

// recorder collects OnMatch reports. The pipeline calls it from its own
// goroutine only, and drive reads it after Stop has returned.
type recorder struct {
	t0     time.Time
	events []matchEvent
}

func (r *recorder) add(x, y int, sim float64) {
	r.events = append(r.events, matchEvent{x: x, y: y, sim: sim, at: time.Since(r.t0)})
}

// sample is what one repetition of a workload measured.
type sample struct {
	profiles      int
	cmps, matches int
	wall          time.Duration // first push due → Stop returned
	drain         time.Duration // last push due → Stop returned
	matchLat      []float64     // ms, per true pair found
	truePairs     int           // ground-truth pairs of the dataset
	found         int           // true pairs found
	foundAtLast   int           // true pairs found by the last push's due time
	pushLate      []float64     // ms
	pushBlocked   time.Duration
	queryLat      []float64 // ms, from the due time beside ingest, per call at rest
	service       []float64 // ms, in-program QueryResult.Elapsed
	considered    int
	answered      int
	ckpt, restore []float64 // s, each of ckptReps checkpoints and restores
	ckptBytes     int64
	rss           []float64 // MB, sampled every rssEvery until Stop returned
	peakRSS       float64   // MB, the process's high-water mark when Stop returned
	attempted     int
	failed        int
}

// pc is the pair completeness at the end (pc_final) and at the last push's
// due time (pc_at_last_push).
func (s *sample) pc() (final, atLastPush float64) {
	n := float64(max(1, s.truePairs))
	return float64(s.found) / n, float64(s.foundAtLast) / n
}

// drive runs one repetition against sys: pushes on the workload's schedule,
// open-loop queries beside them or probes after Stop, then evaluates the
// reported matches. It returns the first incorrect output it
// finds as an error.
func drive(w workload, in *inputs, sys system, rec *recorder, thr float64) (*sample, error) {
	s := &sample{profiles: len(in.profiles), truePairs: in.ds.NumMatches()}
	var qerr firstErr
	interval := w.interval()
	t0 := time.Now()
	rec.t0 = t0

	rss := startRSS()
	var q *queryRun
	if w.qps > 0 {
		q = startQueries(sys, in, t0, w.qps, thr, &qerr)
	}
	for i, inc := range in.incs {
		due := t0.Add(time.Duration(i) * interval)
		sleepUntil(due)
		start := time.Now()
		s.pushLate = append(s.pushLate, ms(start.Sub(due)))
		err := sys.push(inc)
		s.pushBlocked += time.Since(start)
		s.attempted++
		if err != nil {
			s.failed++
		}
	}
	lastDue := time.Duration(len(in.incs)-1) * interval
	s.cmps, s.matches = sys.stop()
	end := time.Since(t0)
	s.wall, s.drain = end, end-lastDue
	s.rss = rss.finish()
	s.peakRSS = peakRSSMB()
	if q != nil {
		q.finish(s)
	} else {
		restProbes(sys, in, thr, s, &qerr)
	}
	if err := qerr.get(); err != nil {
		return s, err
	}

	if len(rec.events) != s.matches {
		return s, fmt.Errorf("%d OnMatch reports, but the pipeline counted %d matches", len(rec.events), s.matches)
	}
	seen := make(map[uint64]struct{}, len(rec.events))
	for _, e := range rec.events {
		if e.x == e.y || e.x < 0 || e.y < 0 || e.x >= len(in.profiles) || e.y >= len(in.profiles) {
			return s, fmt.Errorf("match (%d, %d) names no valid pair of profiles", e.x, e.y)
		}
		if in.ds.CleanClean && in.profiles[e.x].SourceB == in.profiles[e.y].SourceB {
			return s, fmt.Errorf("match (%d, %d) joins one source in a Clean-Clean task", e.x, e.y)
		}
		if e.sim < thr {
			return s, fmt.Errorf("match (%d, %d) has similarity %.4f below the threshold %.2f", e.x, e.y, e.sim, thr)
		}
		key := profile.PairKey(e.x, e.y)
		if _, dup := seen[key]; dup {
			return s, fmt.Errorf("match (%d, %d) reported twice", e.x, e.y)
		}
		seen[key] = struct{}{}
		if !in.ds.IsMatch(e.x, e.y) {
			continue
		}
		s.found++
		due := time.Duration(max(in.incOf[e.x], in.incOf[e.y])) * interval
		s.matchLat = append(s.matchLat, ms(e.at-due))
		if e.at <= lastDue {
			s.foundAtLast++
		}
	}
	if pc, _ := s.pc(); pc < w.minPC {
		return s, fmt.Errorf("pc_final %.4f is below the %.2f a correct run reaches", pc, w.minPC)
	}
	return s, nil
}

// restProbes answers the rest probes against the stopped pipeline, one after
// the other, timing each call. At rest nothing queues, so a closed loop
// measures the query path without the timer wake-ups of an open loop.
func restProbes(sys system, in *inputs, thr float64, s *sample, qerr *firstErr) {
	// Collect the run's garbage first, so the probes time the query path
	// rather than a collection of the ingest's heap.
	runtime.GC()
	pprof.SetGoroutineLabels(lblQuery)
	defer pprof.SetGoroutineLabels(lblHarness)
	for j, id := range in.rest {
		t := time.Now()
		a, err := sys.query(in.profiles[id])
		d := time.Since(t)
		s.attempted++
		if err != nil {
			s.failed++
			continue
		}
		if err := checkAnswer(a, thr); err != nil {
			qerr.set(fmt.Errorf("probe %d: %w", j, err))
		}
		s.answered++
		s.queryLat = append(s.queryLat, ms(d))
		s.service = append(s.service, ms(a.elapsed))
		s.considered += a.considered
	}
}

// queryRun is an open-loop query generator: query j is due at start + j/qps,
// whether or not earlier queries have finished, and its latency counts from
// the due time. At most two goroutines issue queries.
type queryRun struct {
	wg    sync.WaitGroup
	stop  chan struct{}
	mu    sync.Mutex
	lat   []float64
	svc   []float64
	cons  int
	ok    int
	tries int
	fails int
}

func startQueries(sys system, in *inputs, start time.Time, qps float64, thr float64, qerr *firstErr) *queryRun {
	q := &queryRun{stop: make(chan struct{})}
	var next atomic.Int64
	workers := min(2, runtime.NumCPU())
	for g := 0; g < workers; g++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			pprof.SetGoroutineLabels(lblQuery)
			var lat, svc []float64
			cons, ok, tries, fails := 0, 0, 0, 0
			for {
				j := int(next.Add(1) - 1)
				due := start.Add(time.Duration(float64(j) * float64(time.Second) / qps))
				if !waitUntil(due, q.stop) {
					break
				}
				tries++
				a, err := sys.query(in.profiles[in.probes[j%len(in.probes)]])
				done := time.Now()
				if err != nil {
					fails++
					continue
				}
				if err := checkAnswer(a, thr); err != nil {
					qerr.set(fmt.Errorf("query %d: %w", j, err))
				}
				ok++
				lat = append(lat, ms(done.Sub(due)))
				svc = append(svc, ms(a.elapsed))
				cons += a.considered
			}
			q.mu.Lock()
			q.lat = append(q.lat, lat...)
			q.svc = append(q.svc, svc...)
			q.cons += cons
			q.ok += ok
			q.tries += tries
			q.fails += fails
			q.mu.Unlock()
		}()
	}
	return q
}

// finish stops the generator (queries not yet due are not sent), waits for
// its goroutines, and adds what they measured to s.
func (q *queryRun) finish(s *sample) {
	close(q.stop)
	q.wg.Wait()
	s.queryLat = append(s.queryLat, q.lat...)
	s.service = append(s.service, q.svc...)
	s.considered += q.cons
	s.answered += q.ok
	s.attempted += q.tries
	s.failed += q.fails
}

// checkAnswer verifies one query answer on its own: candidates ranked by
// weight, verdicts consistent with similarities, no matcher failures.
func checkAnswer(a answer, thr float64) error {
	if a.considered < len(a.cands) {
		return fmt.Errorf("%d candidates returned but only %d considered", len(a.cands), a.considered)
	}
	for i, c := range a.cands {
		if c.err != nil {
			return fmt.Errorf("candidate %d failed: %v", c.id, c.err)
		}
		if i > 0 && c.weight > a.cands[i-1].weight {
			return fmt.Errorf("candidates not ranked by weight: %v after %v", c.weight, a.cands[i-1].weight)
		}
		if c.match != (c.sim >= thr) {
			return fmt.Errorf("candidate %d: verdict %v disagrees with similarity %.4f", c.id, c.match, c.sim)
		}
	}
	return nil
}

// publicSystem drives the public API.
type publicSystem struct{ p *pier.Pipeline }

func (s publicSystem) push(inc []pier.Profile) error { return s.p.Push(inc) }

func (s publicSystem) stop() (int, int) {
	sum := s.p.Stop()
	return sum.Comparisons, sum.Matches
}

func (s publicSystem) query(probe pier.Profile) (answer, error) {
	r, err := s.p.Query(probe)
	if err != nil {
		return answer{}, err
	}
	a := answer{cands: make([]candidate, len(r.Candidates)), considered: r.Considered, elapsed: r.Elapsed}
	for i, c := range r.Candidates {
		id, err := strconv.Atoi(c.Profile.Key)
		if err != nil {
			return answer{}, fmt.Errorf("candidate key %q: %w", c.Profile.Key, err)
		}
		a.cands[i] = candidate{id: id, weight: c.Weight, sim: c.Similarity, match: c.Match, err: c.Err}
	}
	return a, nil
}

// runPublic is one measured repetition through the public API: the paced
// run, then Checkpoint of the stopped pipeline and Restore of the snapshot.
func runPublic(w workload, in *inputs) (*sample, error) {
	rec := &recorder{}
	opts := w.options(in)
	opts.OnMatch = func(m pier.Match) { rec.add(keyID(m.X), keyID(m.Y), m.Similarity) }
	quiesce()
	p, err := pier.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	s, err := drive(w, in, publicSystem{p}, rec, threshold(opts))
	if err != nil {
		return s, err
	}

	// Checkpoint the stopped pipeline and restore the snapshot ckptReps
	// times each; the last restored pipeline must hold what was written.
	var snap []byte
	for i := 0; i < ckptReps; i++ {
		var buf bytes.Buffer
		runtime.GC()
		t := time.Now()
		n, err := p.Checkpoint(&buf)
		s.ckpt = append(s.ckpt, time.Since(t).Seconds())
		s.ckptBytes, snap = n, buf.Bytes()
		s.attempted++
		if err != nil {
			s.failed++
			return s, fmt.Errorf("checkpoint: %w", err)
		}
	}
	opts.OnMatch = nil
	var r *pier.Pipeline
	for i := 0; i < ckptReps; i++ {
		if r != nil {
			r.Stop()
			r.Close()
		}
		runtime.GC()
		t := time.Now()
		r, err = pier.Restore(bytes.NewReader(snap), opts)
		s.restore = append(s.restore, time.Since(t).Seconds())
		s.attempted++
		if err != nil {
			s.failed++
			return s, fmt.Errorf("restore: %w", err)
		}
	}
	defer r.Close()
	defer r.Stop()
	if err := sameState(in, publicSystem{p}, publicSystem{r}, p.Snapshot(), r.Snapshot()); err != nil {
		return s, fmt.Errorf("restored pipeline: %w", err)
	}
	return s, nil
}

// sameState checks that a restored pipeline holds what was checkpointed: the
// same counters, and the same answers to a fixed set of probes.
func sameState(in *inputs, orig, restored system, a, b pier.Snapshot) error {
	if a.Profiles != b.Profiles || a.Comparisons != b.Comparisons || a.Matches != b.Matches {
		return fmt.Errorf("counters %d/%d/%d, checkpointed %d/%d/%d (profiles/comparisons/matches)",
			b.Profiles, b.Comparisons, b.Matches, a.Profiles, a.Comparisons, a.Matches)
	}
	for _, id := range in.probes[:min(compareProbes, len(in.probes))] {
		x, err := orig.query(in.profiles[id])
		if err != nil {
			return err
		}
		y, err := restored.query(in.profiles[id])
		if err != nil {
			return err
		}
		if !sameAnswer(x, y) {
			return fmt.Errorf("probe %d: answer %+v, checkpointed pipeline answered %+v", id, y.cands, x.cands)
		}
	}
	return nil
}

func sameAnswer(x, y answer) bool {
	if x.considered != y.considered || len(x.cands) != len(y.cands) {
		return false
	}
	for i := range x.cands {
		a, b := x.cands[i], y.cands[i]
		if a.id != b.id || a.weight != b.weight || a.sim != b.sim || a.match != b.match {
			return false
		}
	}
	return true
}

// quiesce collects garbage and returns freed memory before a repetition, so
// every repetition starts from the same state.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler reads the resident set every rssEvery until finished.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var xs []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb := rssMB(); mb > 0 {
				xs = append(xs, mb)
			}
			select {
			case <-r.stop:
				r.done <- xs
				return
			case <-t.C:
			}
		}
	}()
	return r
}

func (r *rssSampler) finish() []float64 {
	close(r.stop)
	return <-r.done
}

// rssMB reads the current resident set in MB, or 0 where /proc is
// unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// firstErr keeps the first error reported from any goroutine.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// waitUntil sleeps until t and reports true, or returns false as soon as stop
// is closed.
func waitUntil(t time.Time, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-stop:
		return false
	case <-timer.C:
		return true
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
