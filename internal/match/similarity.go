package match

import (
	"math"
	"slices"

	"pier/internal/intern"
	"pier/internal/profile"
)

// Additional similarity functions beyond the paper's JS/ED pair, rounding
// out the matching step to what a general-purpose ER library ships: string
// measures for names (Jaro, Jaro-Winkler), token-set measures (overlap
// coefficient, cosine), and the hybrid Monge-Elkan measure that matches
// token lists through a secondary string similarity.
//
// The token-set measures come in two forms: the exported string-slice
// versions (the reference API, still used directly by tests and callers with
// raw token lists) and unexported symbol-set versions the Matcher hot path
// uses — each profile's token set is interned once into a sorted []uint32
// (cached on the profile), and every subsequent comparison is an integer
// intersection instead of a string one. Set cardinalities are preserved by
// the interning bijection, so both forms compute identical values; the
// differential tests in similarity_test.go pin that.

// simTab interns matcher tokens to dense symbols. It is match's own table —
// distinct from the blocking index's — because the matcher also runs on
// probe profiles and in batch tools where no collection exists. Append-only
// and concurrency-safe, so parallel match workers share it freely.
var simTab = intern.New(1 << 12)

// encodeTokens is the profile.TokenSyms encoder: intern every token, sort.
// Tokens() is deduplicated, and interning is injective, so the result is a
// sorted duplicate-free symbol set.
func encodeTokens(toks []string) []uint32 {
	out := make([]uint32, len(toks))
	for i, t := range toks {
		out[i] = uint32(simTab.Intern(t))
	}
	slices.Sort(out)
	return out
}

// tokenSyms returns the profile's cached sorted symbol set.
func tokenSyms(p *profile.Profile) []uint32 {
	return p.TokenSyms(encodeTokens)
}

// jaccardSyms is Jaccard over symbol sets; see Jaccard for the semantics.
func jaccardSyms(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := intern.IntersectCount(a, b)
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// overlapSyms is the overlap coefficient |a ∩ b| / min(|a|, |b|) of two
// sorted, deduplicated symbol sets. Both empty yields 1.
func overlapSyms(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := intern.IntersectCount(a, b)
	return float64(inter) / float64(min(len(a), len(b)))
}

// cosineSyms is the set cosine similarity |a ∩ b| / sqrt(|a|·|b|) of two
// sorted, deduplicated symbol sets. Both empty yields 1.
func cosineSyms(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := intern.IntersectCount(a, b)
	return float64(inter) / math.Sqrt(float64(len(a))*float64(len(b)))
}

// Jaro returns the Jaro similarity of two strings in [0, 1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among the matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// jaroWinklerPrefixScale is the standard Winkler prefix boost factor.
const jaroWinklerPrefixScale = 0.1

// JaroWinkler returns the Jaro-Winkler similarity: Jaro boosted by up to 4
// characters of common prefix — the classic measure for person names.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*jaroWinklerPrefixScale*(1-j)
}

// MongeElkan returns the (symmetrized) Monge-Elkan similarity of two token
// slices under the Jaro-Winkler inner measure: for each token of one side,
// the best Jaro-Winkler score against the other side, averaged; the two
// directions are averaged for symmetry.
func MongeElkan(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return (mongeElkanDirected(a, b) + mongeElkanDirected(b, a)) / 2
}

func mongeElkanDirected(a, b []string) float64 {
	total := 0.0
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := JaroWinkler(ta, tb); s > best {
				best = s
				if best == 1 {
					break
				}
			}
		}
		total += best
	}
	return total / float64(len(a))
}
