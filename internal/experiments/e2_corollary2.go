package experiments

import (
	"context"
	"fmt"

	"iabc"
)

// e2Corollary2 reproduces Corollary 2 (n > 3f is necessary): an exhaustive
// sweep over every digraph on 2 and 3 nodes at f = 1 (4 + 64 graphs, none
// may satisfy), and complete-graph boundary checks K_{3f} (must fail) vs.
// K_{3f+1} (must pass) for f = 1..4.
func e2Corollary2(ctx context.Context) ([]Table, error) {
	exhausted, anySatisfied := 0, false
	for _, n := range []int{2, 3} {
		var pairs [][2]int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			b := iabc.NewBuilder(n)
			for bit, e := range pairs {
				if mask&(1<<bit) != 0 {
					b.AddEdge(e[0], e[1])
				}
			}
			g, err := b.Build()
			if err != nil {
				return nil, err
			}
			sat, err := satisfied(ctx, g, 1)
			if err != nil {
				return nil, err
			}
			exhausted++
			anySatisfied = anySatisfied || sat
		}
	}
	t := Table{
		Header: []string{"graph", "f", "satisfied", "expected"},
		Rows:   []Row{row(!anySatisfied, fmt.Sprintf("all %d digraphs on n ≤ 3", exhausted), 1, anySatisfied, false)},
	}
	for f := 1; f <= 4; f++ {
		for _, n := range []int{3 * f, 3*f + 1} {
			g, err := iabc.Complete(n)
			if err != nil {
				return nil, err
			}
			sat, err := satisfied(ctx, g, f)
			if err != nil {
				return nil, err
			}
			want := n > 3*f
			t.Rows = append(t.Rows, row(sat == want, fmt.Sprintf("K%d", n), f, sat, want))
		}
	}
	return []Table{t}, nil
}
