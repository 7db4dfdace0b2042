package condition

import (
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// insulationScratch is the exact checker's hot-path workspace. The insulated
// test of Definition 1 needs, for every member v of a candidate set L,
// |N⁻_v ∩ (ground−L)|. The scratch caches
//
//	base[v] = |N⁻_v ∩ ground|
//
// once per fault set (the ground set is fixed across the whole candidate
// enumeration) and evaluates |N⁻_v ∩ (ground−L)| = base[v] − |N⁻_v ∩ L|
// with a single word-parallel intersection count per member — no set
// algebra, no allocation. With the exact checker capped at n−f ≤ 62, the
// sets are one machine word in practice, so the fused popcount also beats
// counters kept per node through the enumeration's add and remove steps,
// which pay O(out-degree) per step. One scratch serves one goroutine; a
// parallel CheckScan gives each worker its own.
//
// It also holds the state of the candidate walk (findDisjointInsulatedPair),
// sized once per graph so that a ground allocates nothing for it.
type insulationScratch struct {
	g    *graph.Graph
	base []int
	// members lists the current ground ascending; pool, the members the
	// degree bound admits at the walk's size; suf[i] = {pool[i:]}, the
	// members a prefix ending at pool position i−1 can still draw on.
	members []int
	pool    []int
	suf     []nodeset.Set
	// idx holds the pool positions of the walk's prefix, cur its members.
	idx []int
	cur nodeset.Set
	// tested counts the full-size candidates given the insulation test, the
	// lookahead's residue; tests pin its pruning power with it.
	tested int64
	// peel state for maximalInsulated.
	cntS  []int
	queue []int
	// dead memoizes maximal insulated subsets that peeled to ∅: it holds
	// candidates L (of the current ground) for which the maximal insulated
	// subset of ground−L was computed and found empty. Because that subset
	// is monotone in its sub argument (every insulated subset of a smaller
	// sub is an insulated subset of the larger one), any later candidate
	// L' ⊇ L has an empty complement too, and its peel is skipped — a memo
	// hit. Dominated entries are never stored (a superset of a stored entry
	// is already a hit), and the table is capped at deadCap to bound the
	// subset scans.
	//
	// The memo is valid only relative to the current ground: insulation
	// w.r.t. a smaller ground is a weaker property, so an empty result under
	// one ground proves nothing under another — the fault-set enumeration
	// visits shrinking grounds, which is exactly the unsound direction.
	// setGround therefore clears the table; what persists across fault sets
	// is the storage and the accumulated hit count, not the entries.
	dead []nodeset.Set
}

// deadCap bounds the empty-complement memo. Entries beyond the cap are
// dropped (losing potential hits, never correctness); 64 single-word subset
// tests cost less than one O(edges) peel, so the scan stays profitable.
const deadCap = 64

func newInsulationScratch(g *graph.Graph) *insulationScratch {
	n := g.N()
	suf := make([]nodeset.Set, n+1)
	for i := range suf {
		suf[i] = nodeset.New(n)
	}
	return &insulationScratch{
		g:       g,
		base:    make([]int, n),
		members: make([]int, 0, n),
		pool:    make([]int, 0, n),
		suf:     suf,
		idx:     make([]int, n),
		cur:     nodeset.New(n),
		cntS:    make([]int, n),
		queue:   make([]int, 0, n),
	}
}

// setGround prepares the scratch for candidate enumeration over a new
// ground set.
func (s *insulationScratch) setGround(ground nodeset.Set) {
	s.members = s.members[:0]
	ground.ForEach(func(v int) bool {
		s.base[v] = s.g.CountInFrom(v, ground)
		s.members = append(s.members, v)
		return true
	})
	s.dead = s.dead[:0]
}

// admit fills pool with the ground members the degree bound admits at
// candidate size k — base[v] < threshold+k−1, see findDisjointInsulatedPair
// — in ascending order, builds their suffix sets, and returns len(pool).
func (s *insulationScratch) admit(k, threshold int) int {
	s.pool = s.pool[:0]
	for _, v := range s.members {
		if s.base[v] < threshold+k-1 {
			s.pool = append(s.pool, v)
		}
	}
	q := len(s.pool)
	s.suf[q].DifferenceWith(s.suf[q]) // empties it
	for i := q - 1; i >= 0; i-- {
		// x ∩ y ∪ y = y: copies the next suffix in place.
		s.suf[i].IntersectWith(s.suf[i+1])
		s.suf[i].UnionWith(s.suf[i+1])
		s.suf[i].Add(s.pool[i])
	}
	return q
}

// viable reports whether the walk's prefix cur, at pool positions idx, can
// still be completed to an insulated set by left more members drawn from
// pool[p+1:], p being its last position. A member v of an insulated L needs
// |N⁻_v ∩ L| ≥ base[v] − threshold + 1; at most left more in-neighbors can
// join it, and only from that suffix, so v rules the prefix out when
//
//	|N⁻_v ∩ cur| + min(left, |N⁻_v ∩ pool[p+1:]|) < base[v] − threshold + 1.
//
// At left = 0 this is exactly the insulation test of cur.
func (s *insulationScratch) viable(idx []int, left, threshold int) bool {
	for _, i := range idx {
		v := s.pool[i]
		need := s.base[v] - threshold + 1
		have := s.g.CountInFrom(v, s.cur)
		if have >= need {
			continue
		}
		if have+left < need || have+s.g.CountInFrom(v, s.suf[idx[len(idx)-1]+1]) < need {
			return false
		}
	}
	return true
}

// knownDead reports whether some memoized candidate is a subset of l —
// proving, by monotonicity, that the maximal insulated subset of ground−l
// is empty without peeling it.
func (s *insulationScratch) knownDead(l nodeset.Set) bool {
	for _, d := range s.dead {
		if d.SubsetOf(l) {
			return true
		}
	}
	return false
}

// recordDead memoizes a candidate whose complement peeled to ∅. Candidates
// arrive in ascending size, so no new entry can strictly dominate a stored
// one; knownDead screens out the supersets before they get here.
func (s *insulationScratch) recordDead(l nodeset.Set) {
	if len(s.dead) >= deadCap {
		return
	}
	s.dead = append(s.dead, l.Clone())
}

// maximalInsulated returns the unique maximal subset of sub that is
// insulated with respect to ground, by worklist peeling over the cached
// counts: a node joins the removal queue the moment its in-degree from
// outside the shrinking set reaches threshold. The fixpoint is the same as
// iterative deletion's (the maximal insulated subset is unique, so removal
// order is immaterial), at O(edges) instead of O(iterations · n · words).
func (s *insulationScratch) maximalInsulated(ground, sub nodeset.Set, threshold int) nodeset.Set {
	res := sub.Clone()
	q := s.queue[:0]
	res.ForEach(func(v int) bool {
		s.cntS[v] = s.g.CountInFrom(v, res)
		return true
	})
	res.ForEach(func(v int) bool {
		if s.base[v]-s.cntS[v] >= threshold {
			q = append(q, v)
		}
		return true
	})
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		if !res.Contains(u) {
			continue
		}
		res.Remove(u)
		for _, w := range s.g.OutView(u) {
			if !res.Contains(w) {
				continue
			}
			s.cntS[w]--
			if s.base[w]-s.cntS[w] == threshold {
				q = append(q, w)
			}
		}
	}
	s.queue = q[:0]
	return res
}
