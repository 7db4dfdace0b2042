package experiments

import (
	"context"
	"fmt"

	"iabc"
)

// e6Chord reproduces Section 6.3 (chord networks, Definition 5) and extends
// the paper's three spot checks into an (n, f) sweep: the exact Theorem 1
// verdict per point (which must match the paper where it states one),
// Algorithm 1 under attack on every satisfying instance (which must
// converge), and the re-verification of the witness the paper prints for
// chord(7,2).
func e6Chord(ctx context.Context) ([]Table, error) {
	const eps = 1e-6
	claims := map[[2]int]struct {
		text string
		want bool
	}{
		{4, 1}: {"satisfied (complete)", true},
		{5, 1}: {"satisfied", true},
		{7, 2}: {"violated", false},
	}
	t := Table{Header: []string{"n", "f", "satisfied", "paper claim", "converged under attack"}}
	for _, nf := range [][2]int{
		{4, 1}, {5, 1}, {6, 1}, {7, 1}, {10, 1}, {13, 1},
		{7, 2}, {8, 2}, {9, 2}, {10, 2}, {11, 2}, {13, 2},
		{10, 3}, {13, 3},
	} {
		n, f := nf[0], nf[1]
		g, err := iabc.Chord(n, f)
		if err != nil {
			return nil, err
		}
		sat, err := satisfied(ctx, g, f)
		if err != nil {
			return nil, err
		}
		claim, ok := "-", true
		if c, stated := claims[nf]; stated {
			claim, ok = c.text, sat == c.want
		}
		conv := "-"
		if sat {
			out, err := iabc.Simulate(ctx, g,
				iabc.WithF(f), firstFaulty(f), iabc.WithInitial(ramp(n)),
				iabc.WithAdversary(iabc.Extremes{Amplitude: 100}),
				iabc.WithMaxRounds(100000), iabc.WithEpsilon(eps))
			if err != nil {
				return nil, err
			}
			conv = fmt.Sprintf("%v (%d rounds)", out.Converged, out.Rounds)
			ok = ok && out.Converged
		}
		t.Rows = append(t.Rows, row(ok, n, f, sat, claim, conv))
	}

	g72, err := iabc.Chord(7, 2)
	if err != nil {
		return nil, err
	}
	paper := &iabc.Witness{F: iabc.SetOf(7, 5, 6), L: iabc.SetOf(7, 0, 2), C: iabc.NewSet(7), R: iabc.SetOf(7, 1, 3, 4)}
	paperOK := paper.Verify(g72, 2, iabc.SyncThreshold(2)) == nil
	return []Table{t, note(paperOK, "paper witness F={5,6} L={0,2} R={1,3,4} on chord(7,2) verifies: %v", paperOK)}, nil
}
