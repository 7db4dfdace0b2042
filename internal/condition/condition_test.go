package condition

import (
	"math/rand"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

func mustComplete(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestThresholds(t *testing.T) {
	if SyncThreshold(2) != 3 {
		t.Errorf("SyncThreshold(2) = %d, want 3", SyncThreshold(2))
	}
	if AsyncThreshold(2) != 5 {
		t.Errorf("AsyncThreshold(2) = %d, want 5", AsyncThreshold(2))
	}
}

func TestReachesAndIn(t *testing.T) {
	// 0,1,2 all point at 3; only 0 points at 4.
	g := graph.NewBuilder(5).
		AddEdge(0, 3).AddEdge(1, 3).AddEdge(2, 3).
		AddEdge(0, 4).
		MustBuild()
	a := nodeset.FromMembers(5, 0, 1, 2)
	b := nodeset.FromMembers(5, 3, 4)

	if !Reaches(g, a, b, 3) {
		t.Error("A ⇒ B should hold at threshold 3 (node 3 has 3 in-links)")
	}
	if Reaches(g, a, b, 4) {
		t.Error("A ⇒ B should fail at threshold 4")
	}
	in3 := In(g, a, b, 3)
	if !in3.Equal(nodeset.FromMembers(5, 3)) {
		t.Errorf("in(A⇒B) at 3 = %v, want {3}", in3)
	}
	in1 := In(g, a, b, 1)
	if !in1.Equal(b) {
		t.Errorf("in(A⇒B) at 1 = %v, want {3, 4}", in1)
	}
	if got := In(g, a, b, 4); !got.Empty() {
		t.Errorf("in(A⇒B) at 4 = %v, want empty (A ⇏ B convention)", got)
	}
}

func TestPropagatesCompleteGraph(t *testing.T) {
	g := mustComplete(t, 4)
	a := nodeset.FromMembers(4, 0, 1)
	b := nodeset.FromMembers(4, 2, 3)
	p, err := Propagates(g, a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK || p.Steps != 1 {
		t.Fatalf("K4 {0,1}→{2,3}: OK=%v steps=%d, want true/1", p.OK, p.Steps)
	}
	if len(p.ASeq) != 2 || len(p.BSeq) != 2 {
		t.Fatalf("sequence lengths %d/%d, want 2/2", len(p.ASeq), len(p.BSeq))
	}
	if !p.BSeq[1].Empty() {
		t.Fatalf("B_l = %v, want empty", p.BSeq[1])
	}
}

func TestPropagatesDirectedCycleChain(t *testing.T) {
	// On a directed cycle with threshold 1, {0} propagates to the rest one
	// node per step: l = n-1.
	n := 6
	g, err := topology.DirectedCycle(n)
	if err != nil {
		t.Fatal(err)
	}
	a := nodeset.FromMembers(n, 0)
	b := a.Complement()
	p, err := Propagates(g, a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK || p.Steps != n-1 {
		t.Fatalf("cycle propagation: OK=%v steps=%d, want true/%d", p.OK, p.Steps, n-1)
	}
	// Definition 3 invariants along the sequences.
	for tau := 0; tau <= p.Steps; tau++ {
		if !p.ASeq[tau].Disjoint(p.BSeq[tau]) {
			t.Fatalf("A_%d and B_%d overlap", tau, tau)
		}
		if got := p.ASeq[tau].Union(p.BSeq[tau]); !got.Equal(a.Union(b)) {
			t.Fatalf("A_%d ∪ B_%d = %v does not partition A∪B", tau, tau, got)
		}
		if tau < p.Steps && p.BSeq[tau].Empty() {
			t.Fatalf("B_%d empty before the final step", tau)
		}
	}
}

func TestPropagatesFailure(t *testing.T) {
	// Two disconnected 2-cliques: {0,1} cannot propagate to {2,3}.
	g := graph.NewBuilder(4).AddUndirected(0, 1).AddUndirected(2, 3).MustBuild()
	a := nodeset.FromMembers(4, 0, 1)
	b := nodeset.FromMembers(4, 2, 3)
	p, err := Propagates(g, a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.OK {
		t.Fatal("propagation across disconnection should fail")
	}
	if p.Steps != 0 {
		t.Fatalf("steps = %d, want 0", p.Steps)
	}
}

func TestPropagatesInputValidation(t *testing.T) {
	g := mustComplete(t, 4)
	empty := nodeset.New(4)
	a := nodeset.FromMembers(4, 0, 1)
	if _, err := Propagates(g, empty, a, 1); err == nil {
		t.Error("empty A should error")
	}
	if _, err := Propagates(g, a, empty, 1); err == nil {
		t.Error("empty B should error")
	}
	if _, err := Propagates(g, a, nodeset.FromMembers(4, 1, 2), 1); err == nil {
		t.Error("overlapping sets should error")
	}
}

func TestPropagationStepsBound(t *testing.T) {
	// Paper: l ≤ n − f − 1 whenever A propagates to B with |A| ≥ f+1.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(6)
		f := rng.Intn(2)
		g, err := topology.RandomDigraph(n, 0.6, rng)
		if err != nil {
			t.Fatal(err)
		}
		a := nodeset.New(n)
		for a.Count() < f+1 {
			a.Add(rng.Intn(n))
		}
		b := a.Complement()
		if b.Empty() {
			continue
		}
		p, err := Propagates(g, a, b, f+1)
		if err != nil {
			t.Fatal(err)
		}
		if p.OK && p.Steps > n-f-1 {
			t.Fatalf("n=%d f=%d: %d steps exceeds n-f-1", n, f, p.Steps)
		}
	}
}

// naiveCheck is the literal Theorem 1 statement: enumerate every partition
// F, L, C, R with |F| ≤ f and L, R non-empty, and test the two ⇒ relations
// directly. Exponential (3^n per fault set) — used only to cross-validate
// the insulated-set checker on small graphs.
func naiveCheck(t *testing.T, g *graph.Graph, f, threshold int) *Witness {
	t.Helper()
	n := g.N()
	universe := nodeset.Universe(n)
	var witness *Witness
	for fsz := 0; fsz <= f && fsz <= n; fsz++ {
		nodeset.SubsetsAscendingSize(universe, fsz, fsz, func(fSet nodeset.Set) bool {
			ground := universe.Difference(fSet)
			members := ground.Members()
			m := len(members)
			total := 1
			for i := 0; i < m; i++ {
				total *= 3
			}
			for code := 0; code < total; code++ {
				l, c, r := nodeset.New(n), nodeset.New(n), nodeset.New(n)
				x := code
				for _, v := range members {
					switch x % 3 {
					case 0:
						l.Add(v)
					case 1:
						c.Add(v)
					default:
						r.Add(v)
					}
					x /= 3
				}
				if l.Empty() || r.Empty() {
					continue
				}
				if !Reaches(g, c.Union(r), l, threshold) && !Reaches(g, l.Union(c), r, threshold) {
					witness = &Witness{F: fSet.Clone(), L: l, C: c, R: r}
					return false
				}
			}
			return true
		})
		if witness != nil {
			break
		}
	}
	return witness
}

func TestCheckAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6) // 2..7
		f := rng.Intn(3)     // 0..2
		p := 0.2 + 0.6*rng.Float64()
		g, err := topology.RandomDigraph(n, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(g, f)
		if err != nil {
			t.Fatal(err)
		}
		naive := naiveCheck(t, g, f, SyncThreshold(f))
		if res.Satisfied != (naive == nil) {
			t.Fatalf("n=%d f=%d: checker says satisfied=%v, naive witness=%v\ngraph:\n%s",
				n, f, res.Satisfied, naive, g.EdgeListString())
		}
		if res.Witness != nil {
			if err := res.Witness.Verify(g, f, SyncThreshold(f)); err != nil {
				t.Fatalf("checker witness fails verification: %v", err)
			}
		}
		if naive != nil {
			if err := naive.Verify(g, f, SyncThreshold(f)); err != nil {
				t.Fatalf("naive witness fails verification: %v", err)
			}
		}
	}
}

func TestCheckAgainstNaiveAsyncThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		f := rng.Intn(2)
		g, err := topology.RandomDigraph(n, 0.7, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckThreshold(g, f, AsyncThreshold(f))
		if err != nil {
			t.Fatal(err)
		}
		naive := naiveCheck(t, g, f, AsyncThreshold(f))
		if res.Satisfied != (naive == nil) {
			t.Fatalf("async n=%d f=%d: satisfied=%v naive=%v", n, f, res.Satisfied, naive)
		}
	}
}

func TestCheckCompleteGraphs(t *testing.T) {
	// Complete graphs satisfy the condition exactly when n > 3f.
	for n := 2; n <= 8; n++ {
		for f := 0; f <= 2; f++ {
			g := mustComplete(t, n)
			res, err := Check(g, f)
			if err != nil {
				t.Fatal(err)
			}
			want := n > 3*f
			if res.Satisfied != want {
				t.Errorf("K%d f=%d: satisfied=%v, want %v", n, f, res.Satisfied, want)
			}
		}
	}
}

func TestCheckCoreNetworks(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {5, 1}, {7, 2}, {8, 2}, {10, 3}} {
		g, err := topology.CoreNetwork(tc.n, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(g, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied {
			t.Errorf("CoreNetwork(%d,%d) should satisfy Theorem 1; witness %v", tc.n, tc.f, res.Witness)
		}
	}
}

func TestCheckChordPaperCases(t *testing.T) {
	// Section 6.3, claim 1: f=1, n=4 is complete, trivially satisfies.
	c4, err := topology.Chord(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(c4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Errorf("Chord(4,1): want satisfied, witness %v", res.Witness)
	}

	// Claim 2: f=1, n=5 satisfies Theorem 1.
	c5, err := topology.Chord(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Check(c5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Errorf("Chord(5,1): want satisfied, witness %v", res.Witness)
	}

	// Claim 3: f=2, n=7 does NOT satisfy Theorem 1.
	c7, err := topology.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Check(c7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatal("Chord(7,2): want violation")
	}
	if err := res.Witness.Verify(c7, 2, SyncThreshold(2)); err != nil {
		t.Fatalf("Chord(7,2) witness invalid: %v", err)
	}

	// The paper's own counterexample must verify too:
	// F={5,6}, L={0,2}, R={1,3,4}, C=∅.
	paper := &Witness{
		F: nodeset.FromMembers(7, 5, 6),
		L: nodeset.FromMembers(7, 0, 2),
		C: nodeset.New(7),
		R: nodeset.FromMembers(7, 1, 3, 4),
	}
	if err := paper.Verify(c7, 2, SyncThreshold(2)); err != nil {
		t.Fatalf("the paper's Chord(7,2) witness fails verification: %v", err)
	}
}

func TestCheckHypercube(t *testing.T) {
	// Section 6.2: hypercubes fail for f=1; the dimension cut is a witness.
	for d := 2; d <= 4; d++ {
		g, err := topology.Hypercube(d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied {
			t.Errorf("hypercube d=%d should fail Theorem 1 at f=1", d)
		}
		// The paper's Fig. 3 witness: F=∅, halves along the top dimension.
		n := g.N()
		low := nodeset.New(n)
		for i := 0; i < n/2; i++ {
			low.Add(i)
		}
		w := &Witness{F: nodeset.New(n), L: low, C: nodeset.New(n), R: low.Complement()}
		if err := w.Verify(g, 1, SyncThreshold(1)); err != nil {
			t.Errorf("dimension-cut witness for d=%d fails: %v", d, err)
		}
		// But f=0 holds: hypercubes are connected.
		res0, err := Check(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res0.Satisfied {
			t.Errorf("hypercube d=%d should satisfy f=0", d)
		}
	}
}

func TestCheckCorollary2Exhaustive(t *testing.T) {
	// Corollary 2: no graph with n ≤ 3f satisfies the condition. Exhaust all
	// 64 digraphs on 3 nodes at f=1, and all 2-node digraphs at f=1.
	edges3 := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}
	for mask := 0; mask < 1<<6; mask++ {
		b := graph.NewBuilder(3)
		for i, e := range edges3 {
			if mask&(1<<i) != 0 {
				b.AddEdge(e[0], e[1])
			}
		}
		g := b.MustBuild()
		res, err := Check(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied {
			t.Fatalf("3-node graph (mask %b) satisfies f=1, contradicting Corollary 2", mask)
		}
	}
	edges2 := [][2]int{{0, 1}, {1, 0}}
	for mask := 0; mask < 1<<2; mask++ {
		b := graph.NewBuilder(2)
		for i, e := range edges2 {
			if mask&(1<<i) != 0 {
				b.AddEdge(e[0], e[1])
			}
		}
		g := b.MustBuild()
		res, err := Check(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied {
			t.Fatalf("2-node graph (mask %b) satisfies f=1", mask)
		}
	}
}

func TestCheckCorollary3(t *testing.T) {
	// Take K7 (satisfies f=2) and strip node 0 down to in-degree 4 = 2f:
	// the condition must now fail.
	g := mustComplete(t, 7)
	pruned, err := topology.RemoveEdges(g, [][2]int{{1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.InDegree(0) != 4 {
		t.Fatalf("in-degree = %d, want 4", pruned.InDegree(0))
	}
	res, err := Check(pruned, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatal("in-degree 2f node should violate the condition (Corollary 3)")
	}
	if err := res.Witness.Verify(pruned, 2, SyncThreshold(2)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckF0EquivalentToUniqueSourceSCC(t *testing.T) {
	// For f = 0 the condition is equivalent to the graph having exactly one
	// source component — cross-check on random digraphs.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(8)
		g, err := topology.RandomDigraph(n, 0.25, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied != (countSourceSCCs(g) == 1) {
			t.Fatalf("f=0 condition (%v) disagrees with unique-source-SCC (%d sources)\n%s",
				res.Satisfied, countSourceSCCs(g), g.EdgeListString())
		}
	}
}

func countSourceSCCs(g *graph.Graph) int {
	comps := g.StronglyConnectedComponents()
	id := make([]int, g.N())
	for ci, comp := range comps {
		for _, v := range comp {
			id[v] = ci
		}
	}
	hasIncoming := make([]bool, len(comps))
	g.ForEachEdge(func(from, to int) {
		if id[from] != id[to] {
			hasIncoming[id[to]] = true
		}
	})
	sources := 0
	for _, in := range hasIncoming {
		if !in {
			sources++
		}
	}
	return sources
}

func TestCheckInputValidation(t *testing.T) {
	g := mustComplete(t, 4)
	if _, err := Check(g, -1); err == nil {
		t.Error("negative f should error")
	}
	if _, err := CheckThreshold(g, 1, 0); err == nil {
		t.Error("zero threshold should error")
	}
	big := graph.NewBuilder(70).AddEdge(0, 1).MustBuild()
	if _, err := Check(big, 0); err == nil {
		t.Error("n-f > 62 should be rejected as infeasible")
	}
	// n−f = 62, but Σ_{k≤31} C(93, k) overflows int64.
	huge := graph.NewBuilder(93).AddEdge(0, 1).MustBuild()
	if _, err := Check(huge, 31); err == nil {
		t.Error("an extent past int64 should be rejected as infeasible")
	}
}

func TestWitnessVerifyRejectsBadWitnesses(t *testing.T) {
	g := mustComplete(t, 4)
	n := 4
	full := nodeset.Universe(n)
	cases := []struct {
		name string
		w    Witness
	}{
		{"not covering", Witness{F: nodeset.New(n), L: nodeset.FromMembers(n, 0), C: nodeset.New(n), R: nodeset.FromMembers(n, 1)}},
		{"overlap", Witness{F: nodeset.New(n), L: nodeset.FromMembers(n, 0, 1), C: nodeset.FromMembers(n, 1, 2), R: nodeset.FromMembers(n, 3)}},
		{"F too big", Witness{F: nodeset.FromMembers(n, 0, 1), L: nodeset.FromMembers(n, 2), C: nodeset.New(n), R: nodeset.FromMembers(n, 3)}},
		{"empty L", Witness{F: nodeset.New(n), L: nodeset.New(n), C: nodeset.FromMembers(n, 0, 1), R: nodeset.FromMembers(n, 2, 3)}},
		{"condition holds", Witness{F: nodeset.New(n), L: nodeset.FromMembers(n, 0, 1), C: nodeset.New(n), R: nodeset.FromMembers(n, 2, 3)}},
	}
	_ = full
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.w.Verify(g, 1, 2); err == nil {
				t.Fatal("Verify accepted a bad witness")
			}
		})
	}
}

func TestMaxF(t *testing.T) {
	cases := []struct {
		name string
		g    func() (*graph.Graph, error)
		want int
	}{
		{"K4", func() (*graph.Graph, error) { return topology.Complete(4) }, 1},
		{"K7", func() (*graph.Graph, error) { return topology.Complete(7) }, 2},
		{"K10", func() (*graph.Graph, error) { return topology.Complete(10) }, 3},
		{"hypercube3", func() (*graph.Graph, error) { return topology.Hypercube(3) }, 0},
		{"core(7,2)", func() (*graph.Graph, error) { return topology.CoreNetwork(7, 2) }, 2},
		{"chord(5,1)", func() (*graph.Graph, error) { return topology.Chord(5, 1) }, 1},
		{"two cliques", func() (*graph.Graph, error) {
			return graph.NewBuilder(4).AddUndirected(0, 1).AddUndirected(2, 3).Build()
		}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			got, err := MaxF(g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("MaxF = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestMaxFMonotonicity(t *testing.T) {
	// If the condition holds for f it must hold for all f' < f: spot-check
	// on random graphs by verifying Check agrees below MaxF and fails just
	// above it.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(6)
		g, err := topology.RandomDigraph(n, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		maxF, err := MaxF(g)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f <= maxF; f++ {
			res, err := Check(g, f)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Satisfied {
				t.Fatalf("condition fails at f=%d below MaxF=%d", f, maxF)
			}
		}
		if 3*(maxF+1) < n {
			res, err := Check(g, maxF+1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Satisfied {
				t.Fatalf("condition holds at f=%d above MaxF=%d", maxF+1, maxF)
			}
		}
	}
}

func TestConditionMonotoneInEdges(t *testing.T) {
	// Adding edges can only help: every ⇒ relation is monotone in the edge
	// set, so a satisfying graph stays satisfying under any edge addition.
	rng := rand.New(rand.NewSource(131))
	checked := 0
	for trial := 0; trial < 60 && checked < 15; trial++ {
		n := 4 + rng.Intn(5)
		f := 1
		g, err := topology.RandomDigraph(n, 0.6+0.3*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(g, f)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied {
			continue
		}
		checked++
		// Add up to three random missing edges.
		var add [][2]int
		for len(add) < 3 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				add = append(add, [2]int{u, v})
			}
			if g.NumEdges()+len(add) >= n*(n-1) {
				break
			}
		}
		if len(add) == 0 {
			continue
		}
		bigger, err := topology.AddEdges(g, add)
		if err != nil {
			t.Fatal(err)
		}
		after, err := Check(bigger, f)
		if err != nil {
			t.Fatal(err)
		}
		if !after.Satisfied {
			t.Fatalf("adding edges %v broke the condition:\n%s", add, g.EdgeListString())
		}
	}
	if checked < 5 {
		t.Fatalf("only %d satisfying graphs sampled", checked)
	}
}

func TestEitherPropagatesDichotomy(t *testing.T) {
	// Lemma 2: on a Theorem 1-satisfying graph, any partition A, B, F with
	// |F| ≤ f has A→B or B→A.
	rng := rand.New(rand.NewSource(41))
	g, err := topology.CoreNetwork(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for trial := 0; trial < 60; trial++ {
		f := nodeset.New(n)
		for f.Count() < rng.Intn(3) {
			f.Add(rng.Intn(n))
		}
		rest := f.Complement().Members()
		if len(rest) < 2 {
			continue
		}
		a, b := nodeset.New(n), nodeset.New(n)
		for i, v := range rest {
			if i == 0 || (i > 1 && rng.Intn(2) == 0) {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		_, p, ok, err := EitherPropagates(g, a, b, SyncThreshold(2))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Lemma 2 dichotomy violated for A=%v B=%v F=%v", a, b, f)
		}
		if !p.OK {
			t.Fatal("returned propagation not OK")
		}
	}
}

func TestEitherPropagatesFailureCertifiesViolation(t *testing.T) {
	// On the failing Chord(7,2), the witness partition's L and R propagate
	// in neither direction once F is removed from the graph... Lemma 2 is
	// stated on partitions A, B, F of V; use the paper's witness sets.
	g, err := topology.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := nodeset.FromMembers(7, 0, 2)
	r := nodeset.FromMembers(7, 1, 3, 4)
	_, _, ok, err := EitherPropagates(g, l, r, SyncThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("L and R of a violating partition should not propagate either way")
	}
}

func TestQuickScreen(t *testing.T) {
	k4 := mustComplete(t, 4)
	if v := QuickScreen(k4, 1); len(v) != 0 {
		t.Errorf("K4 f=1 violations = %v, want none", v)
	}
	if v := QuickScreen(k4, 2); len(v) == 0 {
		t.Error("K4 f=2 should violate corollary2 (n ≤ 3f) and corollary3")
	}
	single := graph.NewBuilder(1).MustBuild()
	if v := QuickScreen(single, 0); len(v) != 1 || v[0].Rule != "order" {
		t.Errorf("singleton violations = %v, want [order]", v)
	}
	ring, err := topology.UndirectedRing(8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range QuickScreen(ring, 1) {
		if v.Rule == "corollary3" {
			found = true
		}
	}
	if !found {
		t.Error("ring with in-degree 2 should violate corollary3 at f=1")
	}
	// Violation implements Stringer.
	if s := (Violation{Rule: "x", Detail: "y"}).String(); s != "x: y" {
		t.Errorf("Violation.String = %q", s)
	}
}

func TestQuickScreenAsync(t *testing.T) {
	k5 := mustComplete(t, 5)
	if v := QuickScreenAsync(k5, 1); len(v) == 0 {
		t.Error("K5 f=1 async should violate n > 5f")
	}
	k7 := mustComplete(t, 7)
	if v := QuickScreenAsync(k7, 1); len(v) != 0 {
		t.Errorf("K7 f=1 async violations = %v, want none", v)
	}
	// Screen passing does not imply the exact async condition; but K7 f=1
	// should genuinely satisfy it (in-degree 6 ≥ 3f+1 = 4, n = 7 > 5).
	res, err := CheckThreshold(k7, 1, AsyncThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Errorf("K7 f=1 async exact check: want satisfied, witness %v", res.Witness)
	}
}

func TestCheckAsyncStricterThanSync(t *testing.T) {
	// Any graph satisfying the async condition satisfies the sync one
	// (2f+1 ≥ f+1 makes ⇒ harder, so violations transfer downward).
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(5)
		f := 1
		g, err := topology.RandomDigraph(n, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		asyncRes, err := CheckThreshold(g, f, AsyncThreshold(f))
		if err != nil {
			t.Fatal(err)
		}
		syncRes, err := Check(g, f)
		if err != nil {
			t.Fatal(err)
		}
		if asyncRes.Satisfied && !syncRes.Satisfied {
			t.Fatalf("async condition satisfied but sync violated on n=%d", n)
		}
	}
}

func TestResultCounters(t *testing.T) {
	g := mustComplete(t, 5)
	res, err := Check(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultSetsExamined < 6 { // C(5,0) + C(5,1) = 6
		t.Errorf("FaultSetsExamined = %d, want ≥ 6", res.FaultSetsExamined)
	}
	if res.CandidatesExamined == 0 {
		t.Error("CandidatesExamined should be positive")
	}
}
