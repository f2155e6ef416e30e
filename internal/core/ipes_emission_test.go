package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"pier/internal/blocking"
	"pier/internal/dataset"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/profile"
)

// scanRefIPES is the reference I-PES refill: routing is the production
// code's, but when the entity queue runs dry Dequeue rebuilds it by
// range-scanning the whole E_PQ map, drained entities included, instead of
// walking the active-entity list. The differential test below holds the
// production strategy to its emission sequence.
type scanRefIPES struct{ *IPES }

func (s scanRefIPES) Dequeue() (metablocking.Comparison, bool) {
	for {
		e, ok := s.entityQueue.Pop()
		if !ok {
			pushed := false
			for id, st := range s.epq {
				if top, ok := st.q.PeekBest(); ok {
					s.entityQueue.Push(entityEntry{id: id, weight: top.Weight})
					pushed = true
				}
			}
			if !pushed {
				break
			}
			continue
		}
		st, ok := s.epq[e.id]
		if !ok || st.q.Len() == 0 {
			continue
		}
		c, _ := st.q.PopBest()
		s.pending--
		s.gen.markExecuted(c.Key())
		return c, true
	}
	if c, ok := s.pq.PopBest(); ok {
		s.pending--
		s.gen.markExecuted(c.Key())
		return c, true
	}
	return metablocking.Comparison{}, false
}

// emissionWorld is one seeded workload for the I-PES emission pins: the
// increments of a small DA dataset (Clean-Clean) or of a genWorld vocabulary
// collection (Dirty), blocked one increment at a time.
type emissionWorld struct {
	cleanClean bool
	incs       [][]*profile.Profile
}

func newEmissionWorld(seed int64, dirty bool) emissionWorld {
	if dirty {
		_, incs := genWorld(seed, false, 250, 20)
		return emissionWorld{incs: incs}
	}
	d := dataset.DA(0.04, seed)
	return emissionWorld{cleanClean: true, incs: d.Increments(16)}
}

// emissionRun drives a persistent I-PES the way the live loop does — block an
// increment, UpdateIndex, emit a batch of varying size — then drains the
// index with empty-increment ticks until a tick finds no work, so the run
// ends in the PQ-only phase and the fallback scan. Halfway through the
// stream the strategy is checkpointed with SaveState and replaced by a fresh
// instance restored with LoadState. It returns every dequeued comparison in
// order.
func emissionRun(t *testing.T, w emissionWorld, cfg Config, mk func(Config) Persistent) []metablocking.Comparison {
	t.Helper()
	s := mk(cfg)
	col := blocking.NewCollection(w.cleanClean, 0)
	var seq []metablocking.Comparison
	emit := func(k int) int {
		n := 0
		for ; n < k; n++ {
			c, ok := s.Dequeue()
			if !ok {
				break
			}
			seq = append(seq, c)
		}
		return n
	}
	for i, inc := range w.incs {
		for _, p := range inc {
			col.Add(p)
		}
		s.UpdateIndex(col, inc)
		emit(5 + 7*(i%5))
		if i == len(w.incs)/2 {
			var buf bytes.Buffer
			if err := s.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			s = mk(cfg)
			if err := s.LoadState(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	for rounds := 0; ; rounds++ {
		if rounds > 100_000 {
			t.Fatal("drain did not terminate")
		}
		if emit(13) > 0 || s.Pending() > 0 {
			continue
		}
		s.UpdateIndex(col, nil)
		if s.Pending() == 0 {
			return seq
		}
	}
}

// emissionHash folds an emission sequence — pair and weight bits of every
// comparison, in order — into one FNV-64a value.
func emissionHash(seq []metablocking.Comparison) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for _, c := range seq {
		binary.LittleEndian.PutUint64(b[0:], uint64(c.X))
		binary.LittleEndian.PutUint64(b[8:], uint64(c.Y))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(c.Weight))
		h.Write(b[:])
	}
	return h.Sum64()
}

// emissionConfigs are the I-PES configurations the pins cover: the default,
// a bounded per-entity queue (eviction on push), and a small PQ (drops on
// the low-weight path).
func emissionConfigs() map[string]Config {
	def := DefaultConfig()
	def.CheckInvariants = true
	perEntity := def
	perEntity.PerEntityCapacity = 1
	smallPQ := def
	smallPQ.IndexCapacity = 40
	return map[string]Config{"default": def, "per-entity-1": perEntity, "pq-40": smallPQ}
}

func newIPESPersistent(cfg Config) Persistent { return NewIPES(cfg) }

// TestIPESEmissionGolden pins the I-PES Dequeue sequence: any change to
// routing, refill, or checkpoint restore that reorders, adds, or drops a
// single comparison — or moves one weight bit — fails here, at every
// Parallelism. The hashes were recorded with the full-map-scan refill that
// scanRefIPES keeps, so they hold the active-list refill to its emission.
func TestIPESEmissionGolden(t *testing.T) {
	golden := map[string]struct {
		n    int
		hash uint64
	}{
		"seed=1/dirty=false/default":       {8187, 0x7254e89586af81da},
		"seed=1/dirty=false/per-entity-1":  {8187, 0x67fd4d689a158a4f},
		"seed=1/dirty=false/pq-40":         {1998, 0x49ac187650aaafce},
		"seed=1/dirty=true/default":        {8126, 0x44903c88e03920b5},
		"seed=1/dirty=true/per-entity-1":   {8126, 0x70006cbfeb2b416d},
		"seed=1/dirty=true/pq-40":          {1540, 0xd995893df151ff62},
		"seed=7/dirty=false/default":       {8476, 0xeab4b2e62f0797ab},
		"seed=7/dirty=false/per-entity-1":  {8476, 0xbd3b4a0604467632},
		"seed=7/dirty=false/pq-40":         {2091, 0x6c06dd77f95b05cf},
		"seed=7/dirty=true/default":        {9174, 0x848f1f86b40148de},
		"seed=7/dirty=true/per-entity-1":   {9174, 0x6302e4c0d5b489a},
		"seed=7/dirty=true/pq-40":          {1550, 0x6167109bea5b05c3},
		"seed=42/dirty=false/default":      {8332, 0x825c560ff1e96a3c},
		"seed=42/dirty=false/per-entity-1": {8332, 0x7837de173bd5a638},
		"seed=42/dirty=false/pq-40":        {2220, 0x3fdf949a3059433e},
		"seed=42/dirty=true/default":       {8231, 0xf82ed2f9056e2dfe},
		"seed=42/dirty=true/per-entity-1":  {8231, 0xc7d777948bdd0652},
		"seed=42/dirty=true/pq-40":         {1562, 0xb8bb881661fb5b27},
	}
	for _, seed := range []int64{1, 7, 42} {
		for _, dirty := range []bool{false, true} {
			w := newEmissionWorld(seed, dirty)
			for name, cfg := range emissionConfigs() {
				key := fmt.Sprintf("seed=%d/dirty=%v/%s", seed, dirty, name)
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no golden for %s", key)
				}
				for _, par := range []int{1, 2} {
					cfg.Parallelism = par
					seq := emissionRun(t, w, cfg, newIPESPersistent)
					if got := emissionHash(seq); len(seq) != want.n || got != want.hash {
						t.Errorf("%s p%d: %d comparisons hash %#x, golden %d hash %#x",
							key, par, len(seq), got, want.n, want.hash)
					}
				}
			}
		}
	}
}

// TestIPESMatchesScanReference is the differential half of the emission
// pin: on seeded workloads with mid-stream checkpoint restores, the
// production I-PES must dequeue exactly the comparisons, in exactly the
// order, of the reference that refills by scanning the whole E_PQ map.
func TestIPESMatchesScanReference(t *testing.T) {
	ref := func(cfg Config) Persistent { return scanRefIPES{NewIPES(cfg)} }
	for seed := int64(100); seed < 104; seed++ {
		for _, dirty := range []bool{false, true} {
			w := newEmissionWorld(seed, dirty)
			for name, cfg := range emissionConfigs() {
				cfg.Parallelism = 1 + int(seed%2)
				want := emissionRun(t, w, cfg, ref)
				got := emissionRun(t, w, cfg, newIPESPersistent)
				if len(got) != len(want) {
					t.Fatalf("seed %d dirty=%v %s: %d comparisons, reference %d", seed, dirty, name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d dirty=%v %s: comparison %d = %v, reference %v", seed, dirty, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// ipesWorld ingests a seeded Dirty world into a fresh I-PES without
// dequeuing anything.
func ipesWorld(t *testing.T, cfg Config) *IPES {
	t.Helper()
	s := NewIPES(cfg)
	col := blocking.NewCollection(false, 0)
	for _, inc := range newEmissionWorld(3, true).incs {
		for _, p := range inc {
			col.Add(p)
		}
		s.UpdateIndex(col, inc)
	}
	if len(s.active) == 0 || s.pq.Len() == 0 {
		t.Fatalf("world too small: %d active entities, %d in PQ", len(s.active), s.pq.Len())
	}
	return s
}

// TestIPESActiveListEmptyInPQOnlyPhase drains the entity path until Dequeue
// serves from the low-weight queue PQ: by then the refill has compacted every
// drained entity off the active list, so the PQ-only phase costs O(1) per
// dequeue, and the gauge reports it.
func TestIPESActiveListEmptyInPQOnlyPhase(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	s := ipesWorld(t, cfg)
	gauge := reg.Gauge("pier_ipes_active_entities", "")
	if got := gauge.Value(); got != int64(len(s.active)) {
		t.Fatalf("active gauge = %d, active list holds %d", got, len(s.active))
	}
	fromPQ := 0
	for {
		before := s.pq.Len()
		if _, ok := s.Dequeue(); !ok {
			break
		}
		s.verify()
		if s.pq.Len() == before {
			continue
		}
		fromPQ++
		if len(s.active) != 0 || gauge.Value() != 0 {
			t.Fatalf("PQ-only phase with %d entities still active (gauge %d)", len(s.active), gauge.Value())
		}
	}
	if fromPQ == 0 {
		t.Fatal("no comparison came from PQ; the PQ-only phase was never reached")
	}
}

// TestIPESLoadStateRebuildsActiveList checks that a restore derives the
// active list from the restored queues — exactly the entities with pending
// work, in ascending ID order — and that the result passes verify.
func TestIPESLoadStateRebuildsActiveList(t *testing.T) {
	cfg := DefaultConfig()
	s := ipesWorld(t, cfg)
	for i := 0; i < 50; i++ {
		s.Dequeue()
	}
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewIPES(cfg)
	if err := r.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	r.verify()
	if !slices.IsSorted(r.active) {
		t.Errorf("restored active list not in ID order: %v", r.active)
	}
	var want []int
	for id, st := range r.epq {
		if st.q.Len() > 0 {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	if !slices.Equal(r.active, want) {
		t.Errorf("restored active list = %v, want the %d entities with pending work", r.active, len(want))
	}
}

// TestIPESVerifyCatchesActiveListDrift corrupts the active list each way the
// invariant forbids and expects verify to panic.
func TestIPESVerifyCatchesActiveListDrift(t *testing.T) {
	corruptions := map[string]func(s *IPES){
		"listed entity missing from list": func(s *IPES) { s.active = s.active[1:] },
		"entity listed twice":             func(s *IPES) { s.active = append(s.active, s.active[0]) },
		"flag cleared on listed entity":   func(s *IPES) { s.epq[s.active[0]].listed = false },
		"pending entity unlisted": func(s *IPES) {
			s.epq[s.active[0]].listed = false
			s.active = s.active[1:]
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := ipesWorld(t, DefaultConfig())
			s.verify()
			corrupt(s)
			defer func() {
				if recover() == nil {
					t.Error("verify accepted a corrupted active list")
				}
			}()
			s.verify()
		})
	}
}
