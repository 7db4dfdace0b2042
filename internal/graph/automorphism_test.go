package graph

import (
	"math/rand"
	"testing"
)

// unbounded is a step budget no search on these test graphs can exhaust, so
// the generators span all of Aut(G) and orbit counts are exact.
const unbounded = 1 << 30

func circulant(n int, offs ...int) *Graph {
	b := NewBuilder(n)
	for _, k := range offs {
		for i := 0; i < n; i++ {
			b.AddEdge(i, (i+k)%n)
		}
	}
	return b.MustBuild()
}

// coreNetwork is Definition 4: a (2f+1)-clique with every other node linked
// to all of it.
func coreNetwork(n, f int) *Graph {
	b := NewBuilder(n)
	for i := 0; i <= 2*f; i++ {
		for j := i + 1; j < n; j++ {
			b.AddUndirected(i, j)
		}
	}
	return b.MustBuild()
}

func randomDigraph(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}

func relabelled(g *Graph, perm []int) *Graph {
	b := NewBuilder(g.N())
	g.ForEachEdge(func(u, v int) { b.AddEdge(perm[u], perm[v]) })
	return b.MustBuild()
}

// requireAutomorphisms fails unless every generator is a bijection that maps
// the edge set onto itself, and there are at most n−1 of them.
func requireAutomorphisms(t *testing.T, g *Graph, gens [][]int) {
	t.Helper()
	if len(gens) > g.N()-1 && len(gens) > 0 {
		t.Fatalf("%d generators on %d nodes, want at most n-1", len(gens), g.N())
	}
	for _, perm := range gens {
		if len(perm) != g.N() {
			t.Fatalf("generator %v has length %d, want %d", perm, len(perm), g.N())
		}
		seen := make([]bool, g.N())
		for _, w := range perm {
			if w < 0 || w >= g.N() || seen[w] {
				t.Fatalf("generator %v is not a bijection", perm)
			}
			seen[w] = true
		}
		// A bijection that maps edges to edges maps them onto the edge set.
		g.ForEachEdge(func(u, v int) {
			if !g.HasEdge(perm[u], perm[v]) {
				t.Fatalf("generator %v maps edge (%d,%d) to the non-edge (%d,%d)", perm, u, v, perm[u], perm[v])
			}
		})
	}
}

// pointOrbits counts the orbits of the nodes under the generators.
func pointOrbits(n int, gens [][]int) int {
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	orbits := n
	for _, perm := range gens {
		for v, w := range perm {
			if rv, rw := find(v), find(w); rv != rw {
				parent[rv] = rw
				orbits--
			}
		}
	}
	return orbits
}

// TestAutomorphismGeneratorsKnownGroups pins the point orbits on graphs whose
// group is known, as built and under a random relabelling, at the production
// budget.
func TestAutomorphismGeneratorsKnownGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name   string
		g      *Graph
		orbits int
	}{
		{"chord(16,2)", circulant(16, 1, 2, 3, 4, 5), 1},
		{"directed cycle(9)", circulant(9, 1), 1},
		{"K9", completeGraph(9), 1},
		{"hypercube(4)", hypercube(4), 1},
		{"hypercube(6)", hypercube(6), 1},
		{"core(19,6)", coreNetwork(19, 6), 2},
		{"core(10,3)", coreNetwork(10, 3), 2},
		{"K64", completeGraph(64), 1},
	} {
		for _, g := range []*Graph{tc.g, relabelled(tc.g, rng.Perm(tc.g.N()))} {
			gens := g.AutomorphismGenerators(AutSearchBudget)
			requireAutomorphisms(t, g, gens)
			if got := pointOrbits(g.N(), gens); got != tc.orbits {
				t.Errorf("%s: %d point orbits from %d generators, want %d", tc.name, got, len(gens), tc.orbits)
			}
		}
	}
}

// TestAutomorphismGeneratorsIdentityCases covers the fall-throughs: a graph
// refinement makes discrete, an order beyond one word, and a starved budget
// all return no generators.
func TestAutomorphismGeneratorsIdentityCases(t *testing.T) {
	asym := randomDigraph(12, 0.4, rand.New(rand.NewSource(11)))
	if gens := asym.AutomorphismGenerators(AutSearchBudget); gens != nil {
		t.Errorf("seeded random digraph: generators %v, want none", gens)
	}
	if gens := circulant(65, 1, 2).AutomorphismGenerators(AutSearchBudget); gens != nil {
		t.Errorf("n = 65: %d generators, want none", len(gens))
	}
	if gens := completeGraph(9).AutomorphismGenerators(0); gens != nil {
		t.Errorf("budget 0: %d generators, want none", len(gens))
	}
	// One step per extension still finds what a single individualisation
	// settles: the rotation of a directed circulant.
	g := circulant(16, 1, 2, 3, 4, 5)
	gens := g.AutomorphismGenerators(1)
	requireAutomorphisms(t, g, gens)
	if got := pointOrbits(16, gens); got != 1 {
		t.Errorf("budget 1 on chord(16,2): %d point orbits, want 1", got)
	}
}

// TestAutomorphismGeneratorsRandom checks the soundness property on random
// digraphs, plain and symmetrized (which have more symmetry to find), and
// that the orbit count does not depend on the labelling.
func TestAutomorphismGeneratorsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		g := randomDigraph(n, 0.1+0.8*rng.Float64(), rng)
		if trial%2 == 1 {
			b := NewBuilder(n)
			g.ForEachEdge(func(u, v int) { b.AddUndirected(u, v) })
			g = b.MustBuild()
		}
		gens := g.AutomorphismGenerators(unbounded)
		requireAutomorphisms(t, g, gens)
		h := relabelled(g, rng.Perm(n))
		hgens := h.AutomorphismGenerators(unbounded)
		requireAutomorphisms(t, h, hgens)
		if a, b := pointOrbits(n, gens), pointOrbits(n, hgens); a != b {
			t.Fatalf("trial %d: %d point orbits, %d after relabelling\n%s", trial, a, b, g.EdgeListString())
		}
		// A starved search returns fewer generators, never wrong ones.
		requireAutomorphisms(t, g, g.AutomorphismGenerators(1))
	}
}

// FuzzAutomorphismGenerators builds a digraph from the input bytes — one bit
// per ordered pair, mirrored when the first byte is odd — and checks the same
// two properties.
func FuzzAutomorphismGenerators(f *testing.F) {
	f.Add([]byte{0, 0xff, 0x0f, 0x33})
	f.Add([]byte{1, 0xaa, 0x55, 0xaa, 0x55, 0x01})
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]>>1)%9
		b := NewBuilder(n)
		bit := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if byt := data[1+(bit/8)%(len(data)-1)]; byt>>uint(bit%8)&1 == 1 {
					b.AddEdge(i, j)
					if data[0]&1 == 1 {
						b.AddEdge(j, i)
					}
				}
				bit++
			}
		}
		g := b.MustBuild()
		gens := g.AutomorphismGenerators(unbounded)
		requireAutomorphisms(t, g, gens)
		perm := rand.New(rand.NewSource(int64(len(data)))).Perm(n)
		h := relabelled(g, perm)
		hgens := h.AutomorphismGenerators(unbounded)
		requireAutomorphisms(t, h, hgens)
		if a, b := pointOrbits(n, gens), pointOrbits(n, hgens); a != b {
			t.Fatalf("%d point orbits, %d after relabelling by %v\n%s", a, b, perm, g.EdgeListString())
		}
	})
}
