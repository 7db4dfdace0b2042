package experiments

import (
	"context"
	"fmt"

	"iabc"
	"iabc/internal/delayed"
	"iabc/internal/sim"
	"iabc/internal/workload"
)

// e15Delayed realizes the extension the paper defers to future work
// (Section 7, last paragraph): Algorithm 1 under the partially asynchronous
// model of Bertsekas–Tsitsiklis, where values may be up to B iterations
// stale. On CoreNetwork(7,2) with two core Byzantine nodes and the extremes
// adversary, the sweep measures rounds-to-ε for B = 1, 2, 4, 8 under the
// adversarial (maximally stale) schedule — the expected shape is a roughly
// linear slowdown in B: every run must converge with validity's B-window
// envelope form intact, and the rounds must not decrease as B grows.
//
// The staleness model is sim.Config.Stale, which the facade does not
// expose; it is the one run here that is not an iabc option list.
func e15Delayed(context.Context) ([]Table, error) {
	const (
		n, f = 7, 2
		eps  = 1e-6
	)
	g, err := iabc.CoreNetwork(n, f)
	if err != nil {
		return nil, err
	}
	t := Table{Header: []string{"B", "converged", "rounds to ε", "slowdown vs B=1", "envelope validity"}}
	base, prev := 0, 0
	for _, b := range []int{1, 2, 4, 8} {
		tr, err := sim.Sequential{}.Run(sim.Config{
			G: g, F: f,
			Faulty:    iabc.SetOf(n, 0, 1),
			Initial:   workload.Bimodal(n, 0, 1),
			Rule:      iabc.TrimmedMean{},
			Adversary: iabc.Extremes{Amplitude: 100},
			Stale:     delayed.MaxStale{B: b},
			MaxRounds: 200000, Epsilon: eps,
		})
		if err != nil {
			return nil, err
		}
		_, bad := tr.EnvelopeViolation(b, 1e-9)
		if b == 1 {
			base = tr.Rounds
		}
		t.Rows = append(t.Rows, row(tr.Converged && !bad && tr.Rounds >= prev,
			b, tr.Converged, tr.Rounds, fmt.Sprintf("%.2f×", float64(tr.Rounds)/float64(base)), !bad))
		prev = tr.Rounds
	}
	return []Table{t}, nil
}
