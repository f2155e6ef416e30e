package stream

import (
	"runtime"
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/profile"
)

// trickleStrategy hands out a handful of fresh pairs per refill: every
// UpdateIndex — an increment or an idle tick — queues the next few pairs of
// a sweep over the first trickleProfiles profile IDs, so the drain at Stop
// stays short. It models a pipeline whose adaptive K is far larger than the
// work pending. The test pushes a single increment, so n is fixed before the
// sweep starts.
type trickleStrategy struct {
	n, x, y    int
	used, left int
}

const trickleProfiles = 80 // 3,160 pairs

func (s *trickleStrategy) Name() string { return "trickle" }

func (s *trickleStrategy) UpdateIndex(_ *blocking.Collection, delta []*profile.Profile) time.Duration {
	s.n = min(s.n+len(delta), trickleProfiles)
	s.left = min(5, s.n*(s.n-1)/2-s.used)
	return 0
}

func (s *trickleStrategy) Dequeue() (metablocking.Comparison, bool) {
	if s.left == 0 {
		return metablocking.Comparison{}, false
	}
	s.left--
	s.used++
	if s.y++; s.y >= s.n {
		s.x++
		s.y = s.x + 1
	}
	return metablocking.Comparison{X: s.x, Y: s.y, Weight: 1}, true
}

func (s *trickleStrategy) Pending() int { return s.left }

// TestLiveBatchAllocationFollowsWork pins the reused batch buffers: with K
// pinned at KMax and only a handful of comparisons pending per tick, a batch
// must cost O(work), not O(K). A per-batch make([]job, 0, K) allocates KMax jobs
// — about 12 MB — on every tick.
func TestLiveBatchAllocationFollowsWork(t *testing.T) {
	d := dataset.DA(0.02, 5)
	reg := obsv.NewRegistry()
	l := LiveRun(&trickleStrategy{}, LiveConfig{
		CleanClean:   d.CleanClean,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
		K:            core.NewFixedK(core.KMax),
		Metrics:      reg,
	})
	defer l.Stop()
	// Dataset IDs are dense from 0, which the trickle sweep relies on.
	if err := l.Push(d.Profiles); err != nil {
		t.Fatal(err)
	}
	emits := reg.Histogram("pier_emit_seconds", "", nil)
	cmps := reg.Counter("pier_comparisons_total", "")
	waitFor(t, func() bool { return cmps.Value() >= 20 })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b0, c0 := emits.Count(), cmps.Value()
	time.Sleep(150 * time.Millisecond)
	b1, c1 := emits.Count(), cmps.Value()
	runtime.ReadMemStats(&after)

	batches := b1 - b0
	if batches < 10 || c1-c0 < 10 {
		t.Fatalf("only %d batches and %d comparisons in the window; ticks did not run", batches, c1-c0)
	}
	const perBatch = 64 << 10 // bytes; an O(KMax) job buffer is ~12 MB
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > batches*perBatch {
		t.Errorf("%d batches allocated %d bytes (%d per batch), want <= %d per batch",
			batches, alloc, alloc/batches, perBatch)
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
