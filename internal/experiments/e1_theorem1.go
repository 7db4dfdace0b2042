package experiments

import (
	"context"
	"fmt"

	"iabc"
)

// e1Theorem1Attack reproduces Theorem 1's necessity construction (Fig. 1):
// find a violating partition of the paper's Chord(7,2) counterexample with
// the exact checker, seed L with m = 0 and R with M = 1, make F Byzantine
// with the proof's split-value strategy, and verify that after 500
// iterations every L node still holds exactly m and every R node exactly M —
// the range stays M − m, so consensus is impossible.
func e1Theorem1Attack(ctx context.Context) ([]Table, error) {
	const (
		n, f   = 7, 2
		m, M   = 0.0, 1.0
		rounds = 500
	)
	g, err := iabc.Chord(n, f)
	if err != nil {
		return nil, err
	}
	res, err := iabc.Check(ctx, g, f)
	if err != nil {
		return nil, err
	}
	if res.Satisfied {
		return nil, fmt.Errorf("Chord(%d,%d) unexpectedly satisfies Theorem 1", n, f)
	}
	w := res.Witness
	if err := w.Verify(g, f, iabc.SyncThreshold(f)); err != nil {
		return nil, fmt.Errorf("witness failed verification: %w", err)
	}

	initial := make([]float64, n)
	w.L.ForEach(func(i int) bool { initial[i] = m; return true })
	w.R.ForEach(func(i int) bool { initial[i] = M; return true })
	w.C.ForEach(func(i int) bool { initial[i] = (m + M) / 2; return true })

	out, err := iabc.Simulate(ctx, g,
		iabc.WithF(f), iabc.WithFaultySet(w.F.Clone()), iabc.WithInitial(initial),
		iabc.WithAdversary(iabc.PartitionAttack{L: w.L, R: w.R, Low: m, High: M, Eps: 0.5}),
		iabc.WithMaxRounds(rounds))
	if err != nil {
		return nil, err
	}

	frozen := true
	w.L.ForEach(func(i int) bool { frozen = frozen && out.Final[i] == m; return frozen })
	w.R.ForEach(func(i int) bool { frozen = frozen && out.Final[i] == M; return frozen })
	return []Table{{
		Header: []string{"graph", "n", "f", "witness", "rounds", "L stuck at", "R stuck at", "range", "frozen"},
		Rows: []Row{row(frozen && out.Rounds == rounds && out.FinalRange == M-m,
			fmt.Sprintf("chord(n=%d,f=%d)", n, f), n, f, w, out.Rounds,
			fmt.Sprintf("%g", m), fmt.Sprintf("%g", M), fmt.Sprintf("%g", out.FinalRange), frozen)},
	}}, nil
}
