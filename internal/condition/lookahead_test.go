package condition

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// pairOutcome is one ground's scan as the differential tests compare it.
type pairOutcome struct {
	w  *Witness
	cc WorkCounters
}

func (o pairOutcome) String() string {
	return fmt.Sprintf("witness %v, counters %+v", o.w, o.cc)
}

func (o pairOutcome) equal(p pairOutcome) bool {
	if o.cc != p.cc || (o.w == nil) != (p.w == nil) {
		return false
	}
	return o.w == nil || (o.w.L.Equal(p.w.L) && o.w.R.Equal(p.w.R))
}

// randomGround returns V minus a uniformly drawn fault set of 0–2 nodes.
func randomGround(n int, rng *rand.Rand) nodeset.Set {
	ground := nodeset.Universe(n)
	for _, v := range rng.Perm(n)[:rng.Intn(3)] {
		ground.Remove(v)
	}
	return ground
}

// TestLookaheadMatchesReferenceEnumeration is the differential gate of the
// prefix lookahead: on the orbit zoo, seeded random digraphs and in-regular
// graphs, at both thresholds, over random grounds, the walk returns the
// reference enumeration's witness and the identical Candidates, Pruned and
// MemoHits. Each side keeps one scratch across a graph's grounds, as the
// scanner does, and the walk must leave its prefix set empty.
func TestLookaheadMatchesReferenceEnumeration(t *testing.T) {
	must := mustGraph(t)
	rng := rand.New(rand.NewSource(41))
	type tc struct {
		name string
		g    *graph.Graph
		f    int
	}
	cases := []tc{
		{"chord(16,2)", must(topology.Chord(16, 2)), 2},
		{"chord(7,2)", must(topology.Chord(7, 2)), 2},
		{"chord(10,2)", must(topology.Chord(10, 2)), 2},
		{"chord(12,2)", must(topology.Chord(12, 2)), 2},
		{"chord(11,3)", must(topology.Chord(11, 3)), 3},
		{"core(13,4)", must(topology.CoreNetwork(13, 4)), 4},
		{"core(10,3)", must(topology.CoreNetwork(10, 3)), 4},
		{"hypercube(4)", must(topology.Hypercube(4)), 1},
		{"hypercube(3)", must(topology.Hypercube(3)), 2},
		{"K10", must(topology.Complete(10)), 3},
		{"torus(4,4)", must(topology.Torus(4, 4)), 1},
		{"wheel(9)", must(topology.Wheel(9)), 2},
		{"bipartite(5,6)", must(topology.CompleteBipartite(5, 6)), 2},
	}
	cases = append(cases, tc{"relabelled chord(16,2)", relabelGraph(cases[0].g, rng.Perm(16)), 2})
	for i := 0; i < 80; i++ {
		n := 5 + rng.Intn(10)
		cases = append(cases, tc{fmt.Sprintf("random %d", i), must(topology.RandomDigraph(n, 0.3+0.6*rng.Float64(), rng)), 1 + rng.Intn(2)})
	}
	for i := 0; i < 40; i++ {
		n := 7 + rng.Intn(8)
		d := 2 + rng.Intn(n/2)
		cases = append(cases, tc{fmt.Sprintf("in-regular(%d,%d)", n, d), must(topology.RandomInRegular(n, d, rng)), 1 + rng.Intn(2)})
	}
	var grounds, hits int
	for _, c := range cases {
		n := c.g.N()
		for _, threshold := range []int{SyncThreshold(c.f), AsyncThreshold(c.f)} {
			ref, walk := newInsulationScratch(c.g), newInsulationScratch(c.g)
			for trial := 0; trial < 16; trial++ {
				ground := nodeset.Universe(n)
				if trial > 0 {
					ground = randomGround(n, rng)
				}
				var want, got pairOutcome
				want.w = referenceFindPair(ref, ground, threshold, &want.cc)
				got.w = findDisjointInsulatedPair(walk, ground, threshold, &got.cc)
				if !got.equal(want) {
					t.Fatalf("%s t=%d ground %v:\nwalk      %v\nreference %v", c.name, threshold, ground, got, want)
				}
				if !walk.cur.Empty() {
					t.Fatalf("%s t=%d ground %v: walk left %v in its prefix set", c.name, threshold, ground, walk.cur)
				}
				grounds++
				if want.w != nil {
					hits++
				}
			}
		}
	}
	// Both outcomes must be exercised, or the gate compares too little.
	if hits == 0 || hits == grounds {
		t.Fatalf("%d of %d grounds violated; want a mix", hits, grounds)
	}
}

// TestLookaheadPruningPower pins what the lookahead saves: over every fault
// set of chord(16,2) at f = 2, the plain enumeration tests 1 432 394
// candidates for insulation, the walk fewer than 50 000 (15 135 as written).
func TestLookaheadPruningPower(t *testing.T) {
	g := mustGraph(t)(topology.Chord(16, 2))
	const f = 2
	threshold := SyncThreshold(f)
	universe := nodeset.Universe(g.N())
	scratch := newInsulationScratch(g)
	var walk, ref WorkCounters
	for size := 0; size <= f; size++ {
		nodeset.SubsetsAscendingSize(universe, size, size, func(fSet nodeset.Set) bool {
			ground := universe.Difference(fSet)
			findDisjointInsulatedPair(scratch, ground, threshold, &walk)
			referenceFindPair(newInsulationScratch(g), ground, threshold, &ref)
			return true
		})
	}
	if walk != ref {
		t.Fatalf("walk counters %+v, reference %+v", walk, ref)
	}
	if tested := ref.Candidates - ref.Pruned; tested != 1432394 {
		t.Fatalf("the reference tested %d candidates, want 1432394", tested)
	}
	if scratch.tested >= 50000 {
		t.Fatalf("the walk tested %d candidates for insulation, want < 50000", scratch.tested)
	}
}

// TestLookaheadOversizedGround covers a skipped subtree past binomTable: on a
// 66-node ground, at threshold 1, node 0's one in-neighbor (65) has two and
// is excluded from the size-2 pool, so the prefix {0} dies with the C(64, 1)
// completions over the rest of the pool. The first insulated pair is
// {10, 11}, and its complement keeps the insulated {12, …, 21}. The walk
// must account the skip exactly as the reference counts the candidates it
// visits.
func TestLookaheadOversizedGround(t *testing.T) {
	const n = 66
	b := graph.NewBuilder(n)
	b.AddEdge(65, 0)
	b.AddEdge(1, 65)
	b.AddEdge(2, 65)
	for v := 1; v < 65; v++ {
		switch v {
		case 10, 11, 20, 21:
			b.AddEdge(v^1, v) // mutual pairs {10, 11} and {20, 21}
		default:
			b.AddEdge(v%64+1, v)
		}
	}
	g := b.MustBuild()
	ground := nodeset.Universe(n)
	var want, got pairOutcome
	want.w = referenceFindPair(newInsulationScratch(g), ground, 1, &want.cc)
	got.w = findDisjointInsulatedPair(newInsulationScratch(g), ground, 1, &got.cc)
	if want.w == nil || !want.w.L.Equal(nodeset.FromMembers(n, 10, 11)) {
		t.Fatalf("reference found %v, want L = {10, 11}", want)
	}
	if !got.equal(want) {
		t.Fatalf("walk %v, reference %v", got, want)
	}
}

// TestCompletions checks binom, which also counts the completions below a
// skipped prefix, against exact binomials, past binomTable too, and its zero
// where C(n, k) overflows int64.
func TestCompletions(t *testing.T) {
	for _, n := range []int{0, 1, 5, 62, 63, 64, 70, 90} {
		for k := 0; k <= n; k++ {
			want := new(big.Int).Binomial(int64(n), int64(k))
			if !want.IsInt64() {
				want.SetInt64(0)
			}
			if got := binom(n, k); got != want.Int64() {
				t.Fatalf("binom(%d,%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}
