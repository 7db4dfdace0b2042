package condition

import (
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// The checker's retired implementations, kept as oracles for the ones that
// replaced them.

// isInsulated reports whether every node of x has at most threshold-1
// in-neighbors in ground−x, materializing ground−x: the reference for the
// scratch's word-mask tests.
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

// referenceFindPair is the candidate loop findDisjointInsulatedPair had
// before the prefix lookahead and the word-mask kernel: every candidate of
// the degree-pruned pool enumerated by nodeset.SubsetsAscendingSizePruned,
// tested whole by isInsulated and peeled by maximalInsulatedSubset, with its
// own empty-complement memo of at most deadCap sets. It shares no state with
// the scratch and counts into c exactly as the walk must.
func referenceFindPair(g *graph.Graph, ground nodeset.Set, threshold int, c *WorkCounters) *Witness {
	m := ground.Count()
	if m < 2 {
		return nil
	}
	var (
		found *Witness
		dead  []nodeset.Set
	)
	nodeset.SubsetsAscendingSizePruned(ground, 1, m/2,
		func(v, size int) bool { return g.CountInFrom(v, ground) < threshold+size-1 },
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
			if !isInsulated(g, ground, l, threshold) {
				return true
			}
			for _, d := range dead {
				if d.SubsetOf(l) {
					c.MemoHits++
					return true
				}
			}
			r := maximalInsulatedSubset(g, ground, ground.Difference(l), threshold)
			if !r.Empty() {
				found = &Witness{L: l.Clone(), R: r}
				return false
			}
			if len(dead) < deadCap {
				dead = append(dead, l.Clone())
			}
			return true
		})
	return found
}
