package cluster

import (
	"math/rand"
	"testing"
)

func TestSingletons(t *testing.T) {
	s := New()
	if s.Find(5) != 5 {
		t.Error("fresh ID must be its own root")
	}
	if s.Len() != 1 || s.Count() != 1 {
		t.Errorf("Len=%d Count=%d, want 1/1", s.Len(), s.Count())
	}
	if s.SizeOf(5) != 1 {
		t.Errorf("SizeOf = %d", s.SizeOf(5))
	}
	if s.Same(1, 2) {
		t.Error("distinct singletons reported same")
	}
}

func TestMergeReportsNewLinks(t *testing.T) {
	s := New()
	if !s.Merge(1, 2) {
		t.Error("first merge must report a new link")
	}
	if s.Merge(2, 1) {
		t.Error("repeated merge must not report a new link")
	}
	if !s.Merge(2, 3) {
		t.Error("extension merge must report a new link")
	}
	if s.Merge(1, 3) {
		t.Error("transitive merge must not report a new link")
	}
	if !s.Same(1, 3) {
		t.Error("1 and 3 must co-refer after transitive merges")
	}
	if s.Count() != 1 || s.Len() != 3 {
		t.Errorf("Count=%d Len=%d, want 1/3", s.Count(), s.Len())
	}
	if s.SizeOf(2) != 3 {
		t.Errorf("SizeOf(2) = %d, want 3", s.SizeOf(2))
	}
}

func TestClustersMaterialization(t *testing.T) {
	s := New()
	s.Merge(1, 2)
	s.Merge(3, 4)
	s.Merge(4, 5)
	s.Find(9) // singleton

	all := s.Clusters(1)
	if len(all) != 3 {
		t.Fatalf("Clusters(1) = %v, want 3 clusters", all)
	}
	dups := s.Clusters(2)
	if len(dups) != 2 {
		t.Fatalf("Clusters(2) = %v, want 2 clusters", dups)
	}
	if dups[0][0] != 1 || dups[1][0] != 3 {
		t.Errorf("clusters not sorted by smallest member: %v", dups)
	}
	if len(dups[1]) != 3 {
		t.Errorf("cluster {3,4,5} = %v", dups[1])
	}
}

func TestAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		s := New()
		// Naive reference: map id -> group label, merged by relabeling.
		ref := map[int]int{}
		next := 0
		refMerge := func(x, y int) bool {
			gx, okx := ref[x]
			if !okx {
				gx = next
				next++
				ref[x] = gx
			}
			gy, oky := ref[y]
			if !oky {
				gy = next
				next++
				ref[y] = gy
			}
			if gx == gy {
				return false
			}
			for id, g := range ref {
				if g == gy {
					ref[id] = gx
				}
			}
			return true
		}
		for op := 0; op < 300; op++ {
			x, y := rng.Intn(40), rng.Intn(40)
			got, want := s.Merge(x, y), refMerge(x, y)
			if got != want {
				t.Fatalf("trial %d op %d: Merge(%d,%d) = %v, reference %v", trial, op, x, y, got, want)
			}
		}
		// Same-cluster relation must agree everywhere.
		for x := 0; x < 40; x++ {
			for y := 0; y < 40; y++ {
				if _, ok := ref[x]; !ok {
					continue
				}
				if _, ok := ref[y]; !ok {
					continue
				}
				if s.Same(x, y) != (ref[x] == ref[y]) {
					t.Fatalf("trial %d: Same(%d,%d) = %v disagrees with reference", trial, x, y, s.Same(x, y))
				}
			}
		}
		// Cluster count must agree.
		labels := map[int]bool{}
		for _, g := range ref {
			labels[g] = true
		}
		if s.Count() != len(labels) {
			t.Fatalf("trial %d: Count = %d, reference %d", trial, s.Count(), len(labels))
		}
	}
}

func BenchmarkMergeFind(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Merge(rng.Intn(100000), rng.Intn(100000))
	}
}
