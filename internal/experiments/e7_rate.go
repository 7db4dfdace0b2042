package experiments

import (
	"context"
	"fmt"

	"iabc"
	"iabc/internal/analysis"
)

// e7ConvergenceRate reproduces the convergence-rate analysis (Lemma 5,
// Theorem 3) on core networks for f = 1..3 under the hug adversary — the
// in-range strategy that maximally slows mixing. With α = min_i a_i
// (equation (3)) and l = n−f−1 the worst-case propagation length, the
// measured worst contraction of U−µ over any l consecutive rounds must
// respect the Lemma 5 bound (1 − αˡ/2), and the run must converge within
// the Theorem 3 worst-case round bound; the fitted per-round rate is shown
// for scale.
func e7ConvergenceRate(ctx context.Context) ([]Table, error) {
	const eps = 1e-6
	t := Table{Header: []string{"n", "f", "α", "l", "bound (l rounds)", "measured worst", "within", "per-round rate", "rounds to ε", "worst-case bound"}}
	for _, tc := range []struct{ n, f int }{{4, 1}, {6, 1}, {7, 2}, {9, 2}, {10, 3}} {
		g, err := iabc.CoreNetwork(tc.n, tc.f)
		if err != nil {
			return nil, err
		}
		out, err := iabc.Simulate(ctx, g,
			iabc.WithF(tc.f), firstFaulty(tc.f), iabc.WithInitial(ramp(tc.n)),
			iabc.WithAdversary(iabc.Hug{High: true}),
			iabc.WithMaxRounds(200000), iabc.WithEpsilon(eps))
		if err != nil {
			return nil, err
		}
		alpha, err := iabc.Alpha(g, tc.f)
		if err != nil {
			return nil, err
		}
		l := analysis.WorstCaseSteps(tc.n, tc.f)
		bound := analysis.ContractionBound(alpha, l)
		measured := analysis.MeasureContraction(out.Trace, l, 1e-9)
		roundsBound, err := iabc.RoundsToEpsilonBound(tc.n, tc.f, alpha, out.Trace.Range(0), eps)
		if err != nil {
			return nil, err
		}
		rate := analysis.EmpiricalRate(out.Trace)
		within := measured <= bound+1e-9
		t.Rows = append(t.Rows, row(within && out.Rounds <= roundsBound && 0 < rate && rate < 1,
			tc.n, tc.f, fmt.Sprintf("%.4f", alpha), l,
			fmt.Sprintf("%.6f", bound), fmt.Sprintf("%.6f", measured), within,
			fmt.Sprintf("%.4f", rate), out.Rounds, roundsBound))
	}
	return []Table{t}, nil
}
