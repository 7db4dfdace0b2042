package condition

import (
	"context"
	"math/rand"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// referenceWitness decides the condition with the reference primitives only
// (no scratch, no pruning, no memo) and returns the first witness in
// canonical enumeration order — the exact partition the pre-pruning checker
// reported. Used to pin the pruned checker bit for bit.
func referenceWitness(g *graph.Graph, f, threshold int) *Witness {
	n := g.N()
	universe := nodeset.Universe(n)
	var found *Witness
	for fSize := 0; fSize <= f && fSize <= n && found == nil; fSize++ {
		nodeset.SubsetsAscendingSize(universe, fSize, fSize, func(fSet nodeset.Set) bool {
			ground := universe.Difference(fSet)
			m := ground.Count()
			if m < 2 {
				return true
			}
			nodeset.SubsetsAscendingSize(ground, 1, m/2, func(l nodeset.Set) bool {
				if !isInsulated(g, ground, l, threshold) {
					return true
				}
				r := maximalInsulatedSubset(g, ground, ground.Difference(l), threshold)
				if r.Empty() {
					return true
				}
				found = &Witness{
					F: fSet.Clone(),
					L: l.Clone(),
					C: ground.Difference(l).Difference(r),
					R: r,
				}
				return false
			})
			return found == nil
		})
	}
	return found
}

// TestPrunedCheckBitIdenticalToReference is the PR's core guarantee: on
// random graphs across every feasible f, the pruned-and-memoized checker
// returns the same Satisfied verdict as the unpruned reference and the
// byte-identical witness partition (same F, L, C, R — not merely any valid
// witness), a parallel CheckScan agrees with both, and every returned witness
// passes the independent Theorem 1 oracle (*Witness).Verify.
func TestPrunedCheckBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8) // 2..9
		g, err := topology.RandomDigraph(n, 0.15+0.7*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		maxFeasible := n - 2 // below that ground has < 2 nodes at fSize = f
		if maxFeasible > 4 {
			maxFeasible = 4 // keep the exponential reference affordable
		}
		for f := 0; f <= maxFeasible; f++ {
			threshold := SyncThreshold(f)
			res, err := Check(g, f)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceWitness(g, f, threshold)
			if res.Satisfied != (ref == nil) {
				t.Fatalf("trial %d n=%d f=%d: pruned Satisfied=%v, reference witness=%v\n%s",
					trial, n, f, res.Satisfied, ref, g.EdgeListString())
			}
			if ref != nil {
				w := res.Witness
				if w == nil {
					t.Fatalf("trial %d f=%d: violated without witness", trial, f)
				}
				if !w.F.Equal(ref.F) || !w.L.Equal(ref.L) || !w.C.Equal(ref.C) || !w.R.Equal(ref.R) {
					t.Fatalf("trial %d f=%d: witness drifted from unpruned reference:\npruned    %v\nreference %v",
						trial, f, w, ref)
				}
				if err := w.Verify(g, f, threshold); err != nil {
					t.Fatalf("trial %d f=%d: pruned witness fails Verify: %v", trial, f, err)
				}
			}
			par, err := CheckScan(context.Background(), g, f, SyncThreshold(f), ScanOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if par.Satisfied != res.Satisfied {
				t.Fatalf("trial %d f=%d: parallel verdict %v != sequential %v", trial, f, par.Satisfied, res.Satisfied)
			}
			if !par.Satisfied {
				if !par.Witness.F.Equal(res.Witness.F) || !par.Witness.L.Equal(res.Witness.L) ||
					!par.Witness.R.Equal(res.Witness.R) {
					t.Fatalf("trial %d f=%d: parallel witness %v != sequential %v", trial, f, par.Witness, res.Witness)
				}
				if err := par.Witness.Verify(g, f, threshold); err != nil {
					t.Fatalf("trial %d f=%d: parallel witness fails Verify: %v", trial, f, err)
				}
			}
			// Counter sanity on every path: the pruning account never
			// exceeds the candidates accounted for.
			for _, r := range []Result{res, par} {
				if r.CandidatesPruned < 0 || r.CandidatesPruned > r.CandidatesExamined {
					t.Fatalf("trial %d f=%d: pruned %d out of range [0,%d]",
						trial, f, r.CandidatesPruned, r.CandidatesExamined)
				}
				if r.MemoHits < 0 || r.MemoHits > r.CandidatesExamined {
					t.Fatalf("trial %d f=%d: memo hits %d out of range [0,%d]",
						trial, f, r.MemoHits, r.CandidatesExamined)
				}
			}
		}
	}
}

// TestPrunedCheckAgainstReducedGraphs pins the pruned checker against the
// doubly-exponential reduced-graph characterization — a decider that shares
// no code with the candidate enumeration, so a pruning bug cannot cancel out.
func TestPrunedCheckAgainstReducedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4) // reduced-graph enumeration caps at tiny n
		f := rng.Intn(2)
		g, err := topology.RandomDigraph(n, 0.2+0.6*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(g, f)
		if err != nil {
			t.Fatal(err)
		}
		byReduced, err := CheckViaReducedGraphs(g, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied != byReduced {
			t.Fatalf("trial %d n=%d f=%d: pruned checker %v, reduced graphs %v\n%s",
				trial, n, f, res.Satisfied, byReduced, g.EdgeListString())
		}
	}
}

// TestPrunedCountersAccounting pins the counter semantics on satisfied
// graphs, where no early exit perturbs the account:
//
//   - CandidatesExamined equals the unpruned checker's candidate count
//     exactly — Σ over fault sets of Σ_{k=1..m/2} C(m,k) — so work numbers
//     stay comparable across checker versions;
//   - the counters are monotone in f (each scan extends the previous one);
//   - CandidatesPruned and MemoHits never exceed CandidatesExamined;
//   - a parallel CheckScan reports the identical account.
func TestPrunedCountersAccounting(t *testing.T) {
	g, err := topology.CoreNetwork(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	var prevExamined, prevPruned, prevFaultSets int64
	for f := 0; f <= 3; f++ {
		res, err := Check(g, f)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied {
			t.Fatalf("core(10,3) must satisfy f=%d", f)
		}
		var wantCand, wantFault int64
		for fSize := 0; fSize <= f; fSize++ {
			m := n - fSize
			wantFault += binom(n, fSize)
			var perGround int64
			for k := 1; k <= m/2; k++ {
				perGround += binom(m, k)
			}
			wantCand += binom(n, fSize) * perGround
		}
		if res.FaultSetsExamined != wantFault {
			t.Fatalf("f=%d: FaultSetsExamined = %d, want %d", f, res.FaultSetsExamined, wantFault)
		}
		if res.CandidatesExamined != wantCand {
			t.Fatalf("f=%d: CandidatesExamined = %d, want the unpruned count %d", f, res.CandidatesExamined, wantCand)
		}
		if res.CandidatesPruned > res.CandidatesExamined || res.CandidatesPruned < 0 {
			t.Fatalf("f=%d: CandidatesPruned %d exceeds CandidatesExamined %d",
				f, res.CandidatesPruned, res.CandidatesExamined)
		}
		if res.MemoHits > res.CandidatesExamined || res.MemoHits < 0 {
			t.Fatalf("f=%d: MemoHits %d exceeds CandidatesExamined %d", f, res.MemoHits, res.CandidatesExamined)
		}
		if res.CandidatesExamined < prevExamined || res.CandidatesPruned < prevPruned ||
			res.FaultSetsExamined < prevFaultSets {
			t.Fatalf("f=%d: counters regressed vs f=%d (examined %d<%d, pruned %d<%d, fault sets %d<%d)",
				f, f-1, res.CandidatesExamined, prevExamined, res.CandidatesPruned, prevPruned,
				res.FaultSetsExamined, prevFaultSets)
		}
		prevExamined, prevPruned, prevFaultSets = res.CandidatesExamined, res.CandidatesPruned, res.FaultSetsExamined

		par, err := CheckScan(context.Background(), g, f, SyncThreshold(f), ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.FaultSetsExamined != res.FaultSetsExamined ||
			par.CandidatesExamined != res.CandidatesExamined ||
			par.CandidatesPruned != res.CandidatesPruned ||
			par.MemoHits != res.MemoHits {
			t.Fatalf("f=%d: parallel account %+v differs from sequential %+v", f, par, res)
		}
	}
	// Pruning must actually fire on this family — the clique nodes' high
	// in-degree-from-ground makes them inadmissible at small candidate
	// sizes.
	res, err := Check(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesPruned == 0 {
		t.Fatal("degree-bound pruning did not fire on core(10,3)")
	}
}

// TestPrunedCountersOversizedGround covers the gap between the feasibility
// gate (n − f ≤ 62) and the binom table (n ≤ 62): at fault-set sizes below
// f the ground can exceed 62 members, where no exact int64 account exists.
// The account must skip such grounds, never go negative. The graph plants
// two under-connected 2-cliques in an otherwise dense 64-node digraph, so
// the first candidate ({0} at F = ∅, ground of 64 members) already violates
// and the check terminates immediately.
func TestPrunedCountersOversizedGround(t *testing.T) {
	const n = 64
	b := graph.NewBuilder(n)
	b.AddUndirected(0, 1)
	b.AddUndirected(2, 3)
	for v := 4; v < n; v++ {
		for d := 1; d <= 3; d++ {
			from := 4 + (v-4+d)%(n-4)
			b.AddEdge(from, v)
		}
	}
	g := b.MustBuild()
	res, err := Check(g, 2) // n−f = 62: passes the gate, ground at fSize=0 is 64
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatal("isolated 2-cliques must violate the condition")
	}
	if err := res.Witness.Verify(g, 2, SyncThreshold(2)); err != nil {
		t.Fatalf("witness fails Verify: %v", err)
	}
	if res.CandidatesExamined < 1 {
		t.Fatalf("CandidatesExamined = %d, want >= 1", res.CandidatesExamined)
	}
	if res.CandidatesPruned < 0 || res.CandidatesPruned > res.CandidatesExamined {
		t.Fatalf("pruning account out of range on oversized ground: pruned %d, examined %d",
			res.CandidatesPruned, res.CandidatesExamined)
	}
	if res.MemoHits < 0 || res.MemoHits > res.CandidatesExamined {
		t.Fatalf("MemoHits %d out of range [0,%d]", res.MemoHits, res.CandidatesExamined)
	}
}

// TestMemoHitsFire builds a graph with nested insulated candidates whose
// complements peel to empty — {0,1} first, then {0,1,2} ⊇ {0,1} — so the
// empty-complement memo provably skips the second peel. The verdict must
// still match the reference.
func TestMemoHitsFire(t *testing.T) {
	// In-neighbor design (no self-loops): in(0)={1,2}, in(1)={0,2},
	// in(2)={0,1,3}, in(3)={0,1,4,5}, in(4)={0,1,3,5}, in(5)={0,1,3,4}.
	b := graph.NewBuilder(6)
	ins := map[int][]int{
		0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3},
		3: {0, 1, 4, 5}, 4: {0, 1, 3, 5}, 5: {0, 1, 3, 4},
	}
	for to, froms := range ins {
		for _, from := range froms {
			b.AddEdge(from, to)
		}
	}
	g := b.MustBuild()
	res, err := Check(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits < 1 {
		t.Fatalf("MemoHits = %d, want >= 1 ({0,1,2} ⊇ {0,1} at F=∅)", res.MemoHits)
	}
	ref := referenceWitness(g, 1, SyncThreshold(1))
	if res.Satisfied != (ref == nil) {
		t.Fatalf("memoized verdict %v disagrees with reference (witness %v)", res.Satisfied, ref)
	}
	if res.Witness != nil {
		if err := res.Witness.Verify(g, 1, SyncThreshold(1)); err != nil {
			t.Fatalf("witness fails Verify: %v", err)
		}
		if !res.Witness.F.Equal(ref.F) || !res.Witness.L.Equal(ref.L) || !res.Witness.R.Equal(ref.R) {
			t.Fatalf("witness drifted: got %v, reference %v", res.Witness, ref)
		}
	}
}

// TestBinom spot-checks binom against known values, on both sides of the
// Pascal table, and the out-of-range and overflow convention.
func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 2, 10}, {16, 8, 12870}, {62, 0, 1}, {62, 62, 1},
		{62, 31, 465428353255261088}, {5, 6, 0}, {5, -1, 0}, {63, 1, 63},
		{70, 35, 0},
	}
	for _, tc := range cases {
		if got := binom(tc.n, tc.k); got != tc.want {
			t.Errorf("binom(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}
