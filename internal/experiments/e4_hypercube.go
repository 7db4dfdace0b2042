package experiments

import (
	"context"

	"iabc"
)

// e4Hypercube reproduces Section 6.2 and Fig. 3 for d = 2..7: binary
// hypercubes have connectivity d but never satisfy Theorem 1 for f ≥ 1 — the
// cut along any one dimension is a violating partition. For d ≤ 5 the
// exact checker confirms; for all d the dimension-cut witness is verified
// directly (polynomial time), exactly the paper's argument. A simulation on
// the 3-cube shows the halves held apart.
func e4Hypercube(ctx context.Context) ([]Table, error) {
	t := Table{Header: []string{"d", "n", "satisfied f=1 (exact)", "dim-cut witness verifies", "satisfied f=0"}}
	for d := 2; d <= 7; d++ {
		g, err := iabc.Hypercube(d)
		if err != nil {
			return nil, err
		}
		n := g.N()

		// Fig. 3 witness: halves along the top dimension, F = ∅.
		low := iabc.NewSet(n)
		for i := 0; i < n/2; i++ {
			low.Add(i)
		}
		w := &iabc.Witness{F: iabc.NewSet(n), L: low, C: iabc.NewSet(n), R: low.Complement()}
		cutOK := w.Verify(g, 1, iabc.SyncThreshold(1)) == nil

		// The exact check is exponential: the minimal violating sets are
		// half-cubes, so it must refute every smaller candidate, ~2^n of
		// them. The prefix lookahead refutes them by the subtree, which
		// makes d = 5 instant; d = 6 puts n − f = 63 over the checker's
		// 62-node cap, so for d ≥ 6 the paper's own argument — verify the
		// dimension cut — is polynomial and is what the witness column
		// reports.
		var exact any = "skipped (n too large)"
		satF1 := false
		// f=0 is decidable in polynomial time: unique source SCC ⟺ the
		// condition; hypercubes are strongly connected.
		satF0 := g.IsStronglyConnected()
		if n <= 32 {
			if satF1, err = satisfied(ctx, g, 1); err != nil {
				return nil, err
			}
			if satF0, err = satisfied(ctx, g, 0); err != nil {
				return nil, err
			}
			exact = satF1
		}
		t.Rows = append(t.Rows, row(!satF1 && cutOK && satF0, d, n, exact, cutOK, satF0))
	}

	// Fig. 3 dynamics on the 3-cube, halves seeded 0 and 1. With f = 1 the
	// in-degree bound (3 ≥ 2f+1) holds, so Algorithm 1 runs — but the cut
	// has only one inter-half edge per node, below f+1: even with zero
	// actual faults, trimming f = 1 removes the single cross-dimension value
	// at every node, and the halves never mix.
	g3, err := iabc.Hypercube(3)
	if err != nil {
		return nil, err
	}
	out, err := iabc.Simulate(ctx, g3, iabc.WithF(1),
		iabc.WithInitial([]float64{0, 0, 0, 0, 1, 1, 1, 1}), iabc.WithMaxRounds(300))
	if err != nil {
		return nil, err
	}
	frozen := out.FinalRange == 1.0
	return []Table{t, note(frozen, "3-cube partition attack: frozen=%v, final range=%g", frozen, out.FinalRange)}, nil
}
