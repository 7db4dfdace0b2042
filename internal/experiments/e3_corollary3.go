package experiments

import (
	"context"
	"fmt"

	"iabc"
	"iabc/internal/topology"
)

// e3Corollary3 reproduces Corollary 3 (every in-degree ≥ 2f+1 is
// necessary): starting from K_{3f+1} (which satisfies the condition), strip
// incoming edges from node 0 down to 2f+1 and then exactly 2f, for
// f = 1..3 — the condition must flip to violated at 2f, and the checker's
// witness must survive independent verification.
func e3Corollary3(ctx context.Context) ([]Table, error) {
	t := Table{Header: []string{"f", "n", "indeg(0)", "satisfied", "expected", "witness verifies"}}
	for f := 1; f <= 3; f++ {
		n := 3*f + 1
		for _, indeg := range []int{2 * f, 2*f + 1} {
			g, err := iabc.Complete(n)
			if err != nil {
				return nil, err
			}
			var drop [][2]int
			for from := 1; from <= (n-1)-indeg; from++ {
				drop = append(drop, [2]int{from, 0})
			}
			pruned, err := topology.RemoveEdges(g, drop)
			if err != nil {
				return nil, err
			}
			if got := pruned.InDegree(0); got != indeg {
				return nil, fmt.Errorf("pruned in-degree %d, want %d", got, indeg)
			}
			chk, err := iabc.Check(ctx, pruned, f)
			if err != nil {
				return nil, err
			}
			want := indeg > 2*f
			witnessOK := chk.Witness != nil && chk.Witness.Verify(pruned, f, iabc.SyncThreshold(f)) == nil
			t.Rows = append(t.Rows, row(chk.Satisfied == want && (chk.Satisfied || witnessOK),
				f, n, indeg, chk.Satisfied, want, witnessOK))
		}
	}
	return []Table{t}, nil
}
