package experiments

import (
	"context"
	"fmt"

	"iabc"
)

// e10Scaling characterizes the cost of the machinery itself: the paper's
// condition is coNP-hard to check in general, and the fault sets and
// candidate sets the exact checker examines on growing core networks
// (n = 3f+1 with growing f, then growing n at f = 2) quantify what "exact
// but exponential" means in practice. Core networks always satisfy, and
// within each family the candidate count must grow. The counters are
// deterministic; wall-clock throughput is BENCHMARK.json's job (workloads
// sweep_plane and sweep_replay, layer metric sim.worker_speedup).
func e10Scaling(ctx context.Context) ([]Table, error) {
	t := Table{Header: []string{"graph", "n", "f", "satisfied", "fault sets", "candidates"}}
	for _, family := range [][][2]int{
		{{4, 1}, {7, 2}, {10, 3}, {13, 4}},
		{{10, 2}, {14, 2}, {18, 2}},
	} {
		var prev int64
		for _, nf := range family {
			n, f := nf[0], nf[1]
			g, err := iabc.CoreNetwork(n, f)
			if err != nil {
				return nil, err
			}
			chk, err := iabc.Check(ctx, g, f)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row(chk.Satisfied && chk.CandidatesExamined > prev,
				fmt.Sprintf("core(%d,%d)", n, f), n, f, chk.Satisfied,
				chk.FaultSetsExamined, chk.CandidatesExamined))
			prev = chk.CandidatesExamined
		}
	}
	return []Table{t}, nil
}
