package experiments

import (
	"context"
	"fmt"

	"iabc"
	"iabc/internal/core"
)

// e9RuleAblation is the design ablation behind Algorithm 1 (the validity
// theorem, Theorem 2): on CoreNetwork(7,2) with two core members lying at
// +1000, compare
//
//   - plain Mean (the f = 0 baseline of [4]) — the liar drags fault-free
//     nodes outside the initial hull [0, 6]: validity violated, and the
//     final max shows how far;
//   - Algorithm 1's TrimmedMean — validity holds and the run converges;
//   - TrimmedMidpoint — validity holds too (trimming is what matters), with
//     a different rate: the weight structure of equation (2) is not the
//     only convergent choice, but trimming 2f values is non-negotiable.
func e9RuleAblation(ctx context.Context) ([]Table, error) {
	const (
		n, f = 7, 2
		lie  = 1000.0
		eps  = 1e-6
	)
	g, err := iabc.CoreNetwork(n, f)
	if err != nil {
		return nil, err
	}
	t := Table{Header: []string{"rule", "validity violated", "converged", "rounds", "final range", "final max"}}
	for _, rule := range []iabc.UpdateRule{iabc.Mean{}, iabc.TrimmedMean{}, core.TrimmedMidpoint{}} {
		mean := rule.Name() == "mean"
		ruleF := f
		if mean {
			ruleF = 0 // Mean ignores f; keep validation happy on any graph.
		}
		out, err := iabc.Simulate(ctx, g,
			iabc.WithF(ruleF), firstFaulty(f), iabc.WithInitial(ramp(n)), iabc.WithRule(rule),
			iabc.WithAdversary(iabc.Fixed{Value: lie}),
			iabc.WithMaxRounds(5000), iabc.WithEpsilon(eps))
		if err != nil {
			return nil, err
		}
		_, violated := out.Trace.ValidityViolation(1e-9)
		finalMax := out.Trace.U[out.Rounds]
		ok := !violated && out.Converged
		if mean {
			ok = violated && finalMax >= 100
		}
		t.Rows = append(t.Rows, row(ok, rule.Name(), violated, out.Converged, out.Rounds,
			fmt.Sprintf("%.3g", out.FinalRange), fmt.Sprintf("%.4g", finalMax)))
	}
	return []Table{t}, nil
}
