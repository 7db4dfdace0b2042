package condition

import (
	"math/rand"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// rowOf returns the row of x ⊆ the scratch's current ground.
func rowOf(s *insulationScratch, x nodeset.Set) []uint64 {
	row := make([]uint64, s.w)
	x.ForEach(func(v int) bool {
		p := s.pos[v]
		row[p>>6] |= 1 << (p & 63)
		return true
	})
	return row
}

// peelSet runs the kernel's peel on sub ⊆ the current ground.
func peelSet(s *insulationScratch, sub nodeset.Set, threshold int) nodeset.Set {
	copy(s.res, rowOf(s, sub))
	return s.nodes(s.maximalInsulated(threshold))
}

// insulatedByKernel runs the walk's insulation test — viable at left = 0 —
// on a non-empty l ⊆ the current ground, with every position admitted, so
// that pool indices are positions.
func insulatedByKernel(s *insulationScratch, l nodeset.Set, threshold int) bool {
	s.admit(len(s.members)+1, threshold)
	var idx []int
	l.ForEach(func(v int) bool {
		idx = append(idx, s.pos[v])
		return true
	})
	copy(s.cur, rowOf(s, l))
	defer clear(s.cur)
	return s.viable(idx, 0, threshold)
}

// TestInsulationScratchMatchesReference cross-checks the kernel's insulation
// test and its worklist peel against the retained reference implementations,
// over random graphs, ground sets, and candidate enumerations — exactly the
// access pattern the checker uses.
func TestInsulationScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(8)
		g, err := topology.RandomDigraph(n, 0.2+0.6*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		universe := nodeset.Universe(n)
		ground := universe.Clone()
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 && ground.Count() > 2 {
				ground.Remove(i)
			}
		}
		threshold := 1 + rng.Intn(3)
		scratch := newInsulationScratch(g)
		scratch.setGround(ground)

		m := ground.Count()
		nodeset.SubsetsAscendingSize(ground, 1, m/2, func(l nodeset.Set) bool {
			gotIns := insulatedByKernel(scratch, l, threshold)
			wantIns := isInsulated(g, ground, l, threshold)
			if gotIns != wantIns {
				t.Fatalf("trial %d: insulated(%v) = %v, reference %v (ground %v, th %d)",
					trial, l, gotIns, wantIns, ground, threshold)
			}
			rest := ground.Difference(l)
			got := peelSet(scratch, rest, threshold)
			want := maximalInsulatedSubset(g, ground, rest, threshold)
			if !got.Equal(want) {
				t.Fatalf("trial %d: maximalInsulated(%v) = %v, reference %v",
					trial, rest, got, want)
			}
			return true
		})
	}
}

// TestCheckAgreesWithBruteForcedReference re-runs the full checker against a
// from-scratch implementation built on the reference primitives only, so a
// bug in the incremental path cannot hide behind a bug in the enumeration.
func TestCheckAgreesWithBruteForcedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		g, err := topology.RandomDigraph(n, 0.3+0.5*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		f := rng.Intn(3)
		if n-f < 1 {
			f = 0
		}
		threshold := SyncThreshold(f)
		res, err := CheckThreshold(g, f, threshold)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceCheck(g, f, threshold)
		if res.Satisfied != want {
			t.Fatalf("trial %d: Check = %v, reference = %v on %s (f=%d)",
				trial, res.Satisfied, want, g, f)
		}
		if !res.Satisfied {
			if res.Witness == nil {
				t.Fatalf("trial %d: unsatisfied without witness", trial)
			}
			if err := res.Witness.Verify(g, f, threshold); err != nil {
				t.Fatalf("trial %d: witness fails verification: %v", trial, err)
			}
		}
	}
}

// referenceCheck decides the condition with the reference primitives and no
// incremental state.
func referenceCheck(g *graph.Graph, f, threshold int) bool {
	n := g.N()
	universe := nodeset.Universe(n)
	ok := true
	for fSize := 0; fSize <= f && fSize <= n && ok; fSize++ {
		nodeset.SubsetsAscendingSize(universe, fSize, fSize, func(fSet nodeset.Set) bool {
			ground := universe.Difference(fSet)
			nodeset.SubsetsAscendingSize(ground, 1, ground.Count()/2, func(l nodeset.Set) bool {
				if !isInsulated(g, ground, l, threshold) {
					return true
				}
				r := maximalInsulatedSubset(g, ground, ground.Difference(l), threshold)
				if !r.Empty() {
					ok = false
					return false
				}
				return true
			})
			return ok
		})
	}
	return ok
}
