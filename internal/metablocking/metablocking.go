// Package metablocking implements the meta-blocking machinery the paper
// builds on (Papadakis et al., TKDE 2013): comparison candidates, edge
// weighting schemes over the implicit blocking graph, candidate generation
// for newly arrived profiles, and comparison cleaning with the incremental
// Weighted Node Pruning (I-WNP) of the paper's framework reference [17].
//
// The blocking graph has one node per profile and an edge between two
// profiles whenever they share at least one block; weighting schemes score
// each edge by match likelihood. Nothing here materializes the full graph
// except the batch baselines: incremental candidate generation scores edges
// on the fly from the blocks of a single new profile.
package metablocking

import (
	"fmt"
	"math"
	"slices"

	"pier/internal/blocking"
	"pier/internal/intern"
	"pier/internal/profile"
)

// Comparison is a weighted candidate pair c_{x,y}. X is the anchor profile
// (for incremental generation, the newly arrived one), Y the partner. Weight
// is the value of the configured weighting scheme; BSize is the size of the
// generating block at enqueue time and is only meaningful for I-PBS, whose
// comparison order is the lexicographic pair ⟨BSize asc, Weight desc⟩.
type Comparison struct {
	X, Y   int
	Weight float64
	BSize  int
}

// Key returns the canonical unordered pair key of the comparison.
func (c Comparison) Key() uint64 { return profile.PairKey(c.X, c.Y) }

// String renders the comparison for logs and tests.
func (c Comparison) String() string {
	return fmt.Sprintf("c(%d,%d|w=%.3f,b=%d)", c.X, c.Y, c.Weight, c.BSize)
}

// Less orders comparisons by ascending Weight (ties by pair key for
// determinism); priority queues built on it pop the highest weight first.
func Less(a, b Comparison) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.Key() > b.Key()
}

// LessBlockCentric is the I-PBS order: a comparison is better when its
// generating block is smaller; among equal block sizes, higher weight wins.
// Less(a, b) == true means a is worse than b.
func LessBlockCentric(a, b Comparison) bool {
	if a.BSize != b.BSize {
		return a.BSize > b.BSize
	}
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.Key() > b.Key()
}

// Scheme is a meta-blocking edge weighting scheme.
type Scheme int

const (
	// CBS (Common Blocks Scheme) weighs an edge by the number of blocks
	// the two profiles share. It is the paper's scheme of choice: the
	// cheapest to compute, with good incremental behavior.
	CBS Scheme = iota
	// JSScheme weighs by the Jaccard coefficient of the two profiles'
	// block sets: |B(x) ∩ B(y)| / (|B(x)| + |B(y)| - |B(x) ∩ B(y)|).
	JSScheme
	// ECBS extends CBS with inverse block-frequency factors:
	// CBS · log(|B|/|B(x)|) · log(|B|/|B(y)|).
	ECBS
	// ARCS (Aggregate Reciprocal Comparisons Scheme) sums 1/||b|| over the
	// shared blocks, rewarding small, discriminative blocks.
	ARCS
)

// String returns the scheme's literature name.
func (s Scheme) String() string {
	switch s {
	case CBS:
		return "CBS"
	case JSScheme:
		return "JS"
	case ECBS:
		return "ECBS"
	case ARCS:
		return "ARCS"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// weigh computes the scheme weight for a pair given the accumulated
// per-shared-block statistics: common = |B(x) ∩ B(y)| and arcsSum =
// Σ_{b ∈ shared} 1/||b||. Only the reference Accumulator uses it; the
// Kernel reads the same formulas through its denominator caches.
func (s Scheme) weigh(col *blocking.Collection, x, y, common int, arcsSum float64) float64 {
	switch s {
	case JSScheme:
		return WeighJS(common, col.NumBlocksOf(x), col.NumBlocksOf(y))
	case ECBS:
		return WeighECBS(common, col.NumBlocks(), col.NumBlocksOf(x), col.NumBlocksOf(y))
	case ARCS:
		return arcsSum
	default: // CBS
		return float64(common)
	}
}

// WeighJS is the Jaccard formula over pre-fetched block-set cardinalities:
// common / (bx + by - common). It is the one copy of the expression, shared
// by the reference weigher, the sweep kernel's cached-denominator path and
// the serving path's probe weighting, so all three produce identical floats.
func WeighJS(common, bx, by int) float64 {
	union := bx + by - common
	if union <= 0 {
		return 0
	}
	return float64(common) / float64(union)
}

// WeighECBS is the ECBS formula over pre-fetched cardinalities:
// common · log(total/bx) · log(total/by). See WeighJS on why it is shared.
func WeighECBS(common, total, bx, by int) float64 {
	if bx == 0 || by == 0 || total == 0 {
		return 0
	}
	return float64(common) * math.Log(float64(total)/float64(bx)) * math.Log(float64(total)/float64(by))
}

// acc aggregates the per-shared-block statistics of one candidate partner.
type acc struct {
	common int
	arcs   float64
	bsize  int
}

// Accumulator is the map-based reference implementation of candidate
// generation. Production code generates candidates with a Kernel; the
// Accumulator's only role is to be the oracle the differential tests
// (kernel_test.go here, internal/check and internal/core) pin the Kernel's
// output against, bit for bit. It is exported for those tests in other
// packages. An Accumulator is single-goroutine state.
type Accumulator struct {
	partners map[int]acc
	out      []Comparison
}

// Candidates generates the weighted comparisons of a newly arrived profile p
// against earlier profiles (smaller IDs) from the given block slice —
// typically p's blocks after ghosting. For Clean-Clean collections only
// cross-source partners are considered. Each partner yields exactly one
// comparison whose weight aggregates all shared blocks in the slice; BSize
// is the size of the smallest shared block. Restricting partners to smaller
// IDs makes incremental generation non-redundant: every unordered pair is
// generated exactly once, when its later profile arrives. The returned slice
// is owned by the Accumulator and valid until its next call.
func (g *Accumulator) Candidates(col *blocking.Collection, p *profile.Profile, blocks []*blocking.Block, scheme Scheme) []Comparison {
	if g.partners == nil {
		g.partners = make(map[int]acc)
	} else {
		clear(g.partners)
	}
	consider := func(ids []int, b *blocking.Block) {
		inv := 1.0 / float64(max(1, b.Comparisons(col.CleanClean())))
		size := b.Size()
		for _, id := range ids {
			if id >= p.ID {
				continue
			}
			a, ok := g.partners[id]
			if !ok {
				a.bsize = size
			}
			a.common++
			a.arcs += inv
			if size < a.bsize {
				a.bsize = size
			}
			g.partners[id] = a
		}
	}
	for _, b := range blocks {
		if col.CleanClean() {
			if p.Source == profile.SourceA {
				consider(b.B, b)
			} else {
				consider(b.A, b)
			}
		} else {
			consider(b.A, b)
			consider(b.B, b)
		}
	}
	out := g.out[:0]
	for id, a := range g.partners {
		out = append(out, Comparison{
			X:      p.ID,
			Y:      id,
			Weight: scheme.weigh(col, p.ID, id, a.common, a.arcs),
			BSize:  a.bsize,
		})
	}
	// Deterministic output order (descending weight, ties by pair key):
	// strategies process candidate lists sequentially and their internal
	// state depends on insertion order.
	slices.SortFunc(out, cmpByWeightDesc)
	g.out = out
	return out
}

// cmpByWeightDesc is the descending-Less order as a slices.SortFunc
// comparator (best comparison first). Less is a total order — ties resolve by
// pair key and a pair appears at most once per list — so stability is moot.
func cmpByWeightDesc(a, b Comparison) int {
	switch {
	case Less(b, a):
		return -1
	case Less(a, b):
		return 1
	default:
		return 0
	}
}

// IWNP is the incremental Weighted Node Pruning of [17]: given the candidate
// comparisons of one profile, it drops every comparison whose weight is
// strictly below the list's mean weight and returns the survivors. The input
// slice is reused for the result.
func IWNP(cs []Comparison) []Comparison {
	if len(cs) == 0 {
		return cs
	}
	sum := 0.0
	for _, c := range cs {
		sum += c.Weight
	}
	mean := sum / float64(len(cs))
	out := cs[:0]
	for _, c := range cs {
		if c.Weight >= mean {
			out = append(out, c)
		}
	}
	return out
}

// SharedBlocks counts the live blocks shared by profiles x and y — the exact
// CBS weight of the pair, computed by sorted symbol intersection. Production
// code weighs pairs with Kernel.SharedBlocks; this function's only role is
// to be the reference the differential tests pin the Kernel against. It is
// exported for those tests in other packages.
func SharedBlocks(col *blocking.Collection, x, y int) int {
	sx := col.AppendLiveSymsOf(x, nil)
	sy := col.AppendLiveSymsOf(y, nil)
	slices.Sort(sx)
	slices.Sort(sy)
	return intern.IntersectCount(sx, sy)
}
