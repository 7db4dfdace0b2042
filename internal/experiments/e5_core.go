package experiments

import (
	"context"
	"fmt"

	"iabc"
)

// e5CoreNetwork reproduces Section 6.1 for f = 1..3 with n from 3f+1
// upward: core networks (Definition 4) satisfy Theorem 1 for every n > 3f,
// and Algorithm 1 therefore converges on them under Byzantine attack — with
// the f faulty nodes placed inside the core, the most connected (hardest)
// position. The worst-case Theorem 3 bound is shown for comparison (loose by
// design; the measured rounds must stay below it), and the directed edge
// count records the conjectured-minimal economy of the topology.
func e5CoreNetwork(ctx context.Context) ([]Table, error) {
	const eps = 1e-6
	t := Table{Header: []string{"n", "f", "edges", "satisfied", fmt.Sprintf("converged(ε=%g)", eps), "rounds", "worst-case bound"}}
	for _, tc := range []struct{ n, f int }{
		{4, 1}, {5, 1}, {6, 1}, {8, 1},
		{7, 2}, {8, 2}, {10, 2},
		{10, 3}, {12, 3},
	} {
		g, err := iabc.CoreNetwork(tc.n, tc.f)
		if err != nil {
			return nil, err
		}
		sat, err := satisfied(ctx, g, tc.f)
		if err != nil {
			return nil, err
		}
		out, err := iabc.Simulate(ctx, g,
			iabc.WithF(tc.f), firstFaulty(tc.f), iabc.WithInitial(ramp(tc.n)),
			iabc.WithAdversary(iabc.Extremes{Amplitude: 100}),
			iabc.WithMaxRounds(100000), iabc.WithEpsilon(eps))
		if err != nil {
			return nil, err
		}
		alpha, err := iabc.Alpha(g, tc.f)
		if err != nil {
			return nil, err
		}
		bound, err := iabc.RoundsToEpsilonBound(tc.n, tc.f, alpha, out.Trace.Range(0), eps)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row(sat && out.Converged && out.Rounds > 0 && out.Rounds <= bound,
			tc.n, tc.f, g.NumEdges(), sat, out.Converged, out.Rounds, bound))
	}
	return []Table{t}, nil
}
