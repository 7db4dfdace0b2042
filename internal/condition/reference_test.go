package condition

import (
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// The checker's retired implementations, kept as oracles for the ones that
// replaced them.

// isInsulated reports whether every node of x has at most threshold-1
// in-neighbors in ground−x, materializing ground−x: the reference for the
// scratch's cached-count tests.
func isInsulated(g *graph.Graph, ground, x nodeset.Set, threshold int) bool {
	outside := ground.Difference(x)
	ok := true
	x.ForEach(func(v int) bool {
		if g.CountInFrom(v, outside) >= threshold {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// maximalInsulatedSubset returns the unique maximal subset S of sub that is
// insulated with respect to ground (every v ∈ S has ≤ threshold−1
// in-neighbors in ground−S). Iterative deletion: remove any node with too
// many in-neighbors outside the shrinking S; by union-closure of insulated
// sets, every insulated subset of sub survives, so the fixpoint is maximal.
// The reference for insulationScratch.maximalInsulated.
func maximalInsulatedSubset(g *graph.Graph, ground, sub nodeset.Set, threshold int) nodeset.Set {
	s := sub.Clone()
	outside := ground.Difference(s)
	for {
		var removed []int
		s.ForEach(func(v int) bool {
			if g.CountInFrom(v, outside) >= threshold {
				removed = append(removed, v)
			}
			return true
		})
		if len(removed) == 0 {
			return s
		}
		for _, v := range removed {
			s.Remove(v)
			outside.Add(v)
		}
	}
}

// insulated reports whether every node of l has at most threshold−1
// in-neighbors in ground−l, using the cached ground counts: the candidate
// test referenceFindPair makes, result-identical to isInsulated.
func (s *insulationScratch) insulated(l nodeset.Set, threshold int) bool {
	ok := true
	l.ForEach(func(v int) bool {
		if s.base[v]-s.g.CountInFrom(v, l) >= threshold {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// referenceFindPair is the candidate loop findDisjointInsulatedPair had
// before the prefix lookahead: every candidate of the degree-pruned pool
// enumerated by nodeset.SubsetsAscendingSizePruned and tested whole. It
// shares the scratch — base counts, memo, peel — and counts into c exactly
// as the walk must.
func referenceFindPair(s *insulationScratch, ground nodeset.Set, threshold int, c *WorkCounters) *Witness {
	m := ground.Count()
	if m < 2 {
		return nil
	}
	s.setGround(ground)
	var found *Witness
	nodeset.SubsetsAscendingSizePruned(ground, 1, m/2,
		func(v, size int) bool { return s.base[v] < threshold+size-1 },
		func(size, kept, total int) {
			if total > 62 {
				return
			}
			skipped := binom(total, size) - binom(kept, size)
			c.Candidates += skipped
			c.Pruned += skipped
		},
		func(l nodeset.Set) bool {
			c.Candidates++
			if !s.insulated(l, threshold) {
				return true
			}
			if s.knownDead(l) {
				c.MemoHits++
				return true
			}
			r := s.maximalInsulated(ground, ground.Difference(l), threshold)
			if !r.Empty() {
				found = &Witness{L: l.Clone(), R: r}
				return false
			}
			s.recordDead(l)
			return true
		})
	return found
}
