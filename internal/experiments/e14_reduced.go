package experiments

import (
	"context"
	"math/rand"

	"iabc"
	"iabc/internal/condition"
	"iabc/internal/topology"
)

// e14ReducedCrossCheck cross-validates the two independent
// characterizations of the tight condition on 120 random digraphs with
// n ≤ 5, f ≤ 1 (the reduced-graph enumeration is doubly exponential) — the
// insulated-set checker (Definition 1 route, running its pruned-and-memoized
// candidate enumeration) against the reduced-graph route (every fault set,
// every choice of ≤ f in-edge deletions per node, must leave a unique source
// component). The two implementations share only the graph type; exact
// agreement on every graph is the strongest internal-consistency evidence
// the library offers — and, since the pruned checker is the one under test,
// a standing cross-validation that the degree bound and memo never change a
// verdict: the summed work counters show the agreement was reached over the
// pruned path, not around it, and the satisfied count that the sample
// covers both verdicts. The note reports the reduced-graph sampling screen
// on the thin-bridge barbell, where a deficit of unique-source samples
// certifies the violation cheaply.
//
// The reduced-graph decider is the one thing here the iabc facade does not
// export, hence this file's internal/condition import (one of the two
// allowances in TestFacadeOnlyConsumers; e15_delayed.go holds the other).
func e14ReducedCrossCheck(ctx context.Context) ([]Table, error) {
	const trials = 120
	rng := rand.New(rand.NewSource(14))
	var agreements, satisfiedCount int
	var candidates, pruned, memoHits int64
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(4)
		f := rng.Intn(2)
		g, err := topology.RandomDigraph(n, 0.2+0.6*rng.Float64(), rng)
		if err != nil {
			return nil, err
		}
		byWitness, err := iabc.Check(ctx, g, f)
		if err != nil {
			return nil, err
		}
		byReduced, err := condition.CheckViaReducedGraphs(g, f)
		if err != nil {
			return nil, err
		}
		if byWitness.Satisfied == byReduced {
			agreements++
		}
		if byWitness.Satisfied {
			satisfiedCount++
		}
		candidates += byWitness.CandidatesExamined
		pruned += byWitness.CandidatesPruned
		memoHits += byWitness.MemoHits
	}

	barbell, err := topology.Barbell(3, 0)
	if err != nil {
		return nil, err
	}
	unique, total, err := condition.SampleReducedGraphs(barbell, 1, 400, rand.New(rand.NewSource(15)))
	if err != nil {
		return nil, err
	}
	return []Table{{
		Header: []string{"random graphs", "agreements", "satisfied among them", "cand sets", "pruned", "memo"},
		Rows: []Row{row(agreements == trials && 0 < satisfiedCount && satisfiedCount < trials &&
			0 <= pruned && pruned <= candidates,
			trials, agreements, satisfiedCount, candidates, pruned, memoHits)},
	}, note(unique < total,
		"sampling screen on barbell(3,0), f=1: %d/%d reduced graphs had a unique source (deficit certifies violation)",
		unique, total)}, nil
}
