package experiments

import (
	"context"
	"fmt"

	"iabc"
	"iabc/internal/topology"
)

// e13Connectivity quantifies the paper's repeated remark (Sections 6.2,
// 6.3) that classical connectivity does not capture iterative consensus:
// undirected connectivity > 2f suffices for *non-iterative* algorithms [12],
// so a graph with vertex connectivity κ would "classically" tolerate the
// largest f with κ > 2f — yet the iterative family's true tolerance is MaxF
// under Theorem 1, which can be far lower. The gap can never be negative
// (the condition cannot beat connectivity), must be positive on the
// hypercubes, chord(7,2) and K_{5,5}, and zero on core networks and K7.
//
// The last two rows — chord(16,2) and core(16,2), sizes the unpruned
// enumeration made painfully slow — are checker-scaling records: the work
// columns give the MaxF scan's candidate count, the share of it the degree
// lower bound skipped unvisited, and the complement peels the
// empty-complement memo avoided; pruning must fire on every row.
func e13Connectivity(ctx context.Context) ([]Table, error) {
	t := Table{Header: []string{"graph", "n", "κ", "classical f (κ>2f)", "iterative f (Thm 1)", "gap", "cand sets", "pruned", "memo"}}
	const (
		anyGap = iota
		zeroGap
		positiveGap
	)
	for _, tc := range []struct {
		name  string
		build func() (*iabc.Graph, error)
		gap   int
	}{
		{"hypercube d=3", func() (*iabc.Graph, error) { return iabc.Hypercube(3) }, positiveGap},
		{"hypercube d=4", func() (*iabc.Graph, error) { return iabc.Hypercube(4) }, positiveGap},
		{"chord(7,2)", func() (*iabc.Graph, error) { return iabc.Chord(7, 2) }, positiveGap},
		{"core(7,2)", func() (*iabc.Graph, error) { return iabc.CoreNetwork(7, 2) }, zeroGap},
		{"K7", func() (*iabc.Graph, error) { return iabc.Complete(7) }, zeroGap},
		{"K_{5,5}", func() (*iabc.Graph, error) { return topology.CompleteBipartite(5, 5) }, positiveGap},
		{"chord(16,2)", func() (*iabc.Graph, error) { return iabc.Chord(16, 2) }, anyGap},
		{"core(16,2)", func() (*iabc.Graph, error) { return iabc.CoreNetwork(16, 2) }, zeroGap},
	} {
		g, err := tc.build()
		if err != nil {
			return nil, err
		}
		kappa := g.VertexConnectivity()
		classical := 0
		if kappa > 0 {
			classical = (kappa - 1) / 2
		}
		iterative, stats, err := iabc.MaxFWithStats(ctx, g)
		if err != nil {
			return nil, err
		}
		if iterative < 0 {
			iterative = 0 // report floor; "-1" means not even f=0
		}
		gap := classical - iterative
		pruned := "0.0%"
		if stats.CandidatesExamined > 0 {
			pruned = fmt.Sprintf("%.1f%%", 100*float64(stats.CandidatesPruned)/float64(stats.CandidatesExamined))
		}
		ok := gap >= 0 && 0 < stats.CandidatesPruned && stats.CandidatesPruned <= stats.CandidatesExamined
		switch tc.gap {
		case zeroGap:
			ok = ok && gap == 0
		case positiveGap:
			ok = ok && gap > 0
		}
		t.Rows = append(t.Rows, row(ok,
			tc.name, g.N(), kappa, classical, iterative, gap,
			stats.CandidatesExamined, pruned, stats.MemoHits))
	}
	return []Table{t}, nil
}
