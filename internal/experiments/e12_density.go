package experiments

import (
	"context"
	"fmt"
	"math"

	"iabc"
	"iabc/internal/analysis"
	"iabc/internal/workload"
)

// e12Density is the density ablation: on circulant graphs of fixed order
// n = 16 with offset counts k = 3, 4, 6, 8, 12, 15 (k = 3 is Chord(16, 1),
// the minimal chord for f = 1; k = 15 is K16), measure how connectivity buys
// convergence speed. α of equation (3) *shrinks* as in-degree grows
// (a_i = 1/(d+1−2f)), yet convergence gets *faster* because information
// needs fewer hops: the Lemma 5 worst-case bound moves the opposite way from
// the measured rate, showing how loose the worst case is on dense graphs.
// Every circulant must satisfy the condition at f = 1, and neither α nor the
// rounds-to-ε under the insider adversary — the decisive column — may grow
// with density.
func e12Density(ctx context.Context) ([]Table, error) {
	const (
		n, f = 16, 1
		eps  = 1e-6
	)
	t := Table{Header: []string{"offsets k", "density", "satisfied", "α", "rounds to ε", "per-round rate"}}
	prevAlpha, prevRounds := 1.0, math.MaxInt
	for _, k := range []int{3, 4, 6, 8, 12, 15} {
		offs := make([]int, k)
		for i := range offs {
			offs[i] = i + 1
		}
		g, err := iabc.Circulant(n, offs)
		if err != nil {
			return nil, err
		}
		density := fmt.Sprintf("%.3f", g.Density())
		sat, err := satisfied(ctx, g, f, iabc.WithWorkers(0))
		if err != nil {
			return nil, err
		}
		if !sat {
			t.Rows = append(t.Rows, row(false, k, density, sat, "-", "-", "-"))
			continue
		}
		alpha, err := iabc.Alpha(g, f)
		if err != nil {
			return nil, err
		}
		out, err := iabc.Simulate(ctx, g,
			iabc.WithF(f), firstFaulty(f), iabc.WithInitial(workload.Bimodal(n, 0, 1)),
			iabc.WithAdversary(iabc.Insider{High: true}),
			iabc.WithMaxRounds(100000), iabc.WithEpsilon(eps))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row(alpha <= prevAlpha && out.Rounds <= prevRounds,
			k, density, sat, fmt.Sprintf("%.4f", alpha), out.Rounds,
			fmt.Sprintf("%.4f", analysis.EmpiricalRate(out.Trace))))
		prevAlpha, prevRounds = alpha, out.Rounds
	}
	return []Table{t}, nil
}
