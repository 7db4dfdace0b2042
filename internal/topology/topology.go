// Package topology generates the graph families studied in the paper's
// Section 6 (core networks, hypercubes, chord networks) plus standard
// families used by the test suite, benchmarks, and examples (complete
// graphs, rings, circulants, grids, random digraphs).
//
// All generators return immutable *graph.Graph values; randomized generators
// take an explicit *rand.Rand so every experiment is reproducible.
package topology

import (
	"fmt"
	"math/rand"

	"iabc/internal/graph"
)

// Complete returns the complete directed graph on n nodes: every ordered
// pair (i, j), i != j, is an edge. Requires n >= 1.
func Complete(n int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// CoreNetwork builds the paper's Definition 4 on n nodes: nodes 0..2f (the
// core K, |K| = 2f+1) form a clique, and every node outside K has undirected
// links to all of K. Requires n > 3f and f >= 0.
//
// The paper conjectures that with n = 3f+1 this is edge-minimal among
// undirected graphs admitting iterative approximate consensus.
func CoreNetwork(n, f int) (*graph.Graph, error) {
	if f < 0 {
		return nil, fmt.Errorf("topology: core network needs f >= 0, got %d", f)
	}
	if n <= 3*f {
		return nil, fmt.Errorf("topology: core network needs n > 3f (n=%d, f=%d)", n, f)
	}
	return PFCN(n, 2*f+1)
}

// Hypercube builds the d-dimensional binary hypercube (Section 6.2, Fig. 3):
// 2^d nodes; i and j adjacent (in both directions) iff their labels differ
// in exactly one bit. Requires 1 <= d <= 20.
func Hypercube(d int) (*graph.Graph, error) {
	if d < 1 || d > 20 {
		return nil, fmt.Errorf("topology: hypercube dimension must be in [1,20], got %d", d)
	}
	n := 1 << uint(d)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for bit := 0; bit < d; bit++ {
			j := i ^ (1 << uint(bit))
			if i < j {
				b.AddUndirected(i, j)
			}
		}
	}
	return b.Build()
}

// Chord builds the paper's Definition 5: a directed graph on nodes
// 0..n-1 with edges (i, (i+k) mod n) for 1 <= k <= 2f+1. Requires n > 2f+1
// so that the offsets are distinct (the paper additionally assumes n > 3f
// when asking whether consensus is possible, but the topology itself only
// needs distinct offsets).
func Chord(n, f int) (*graph.Graph, error) {
	if f < 0 {
		return nil, fmt.Errorf("topology: chord needs f >= 0, got %d", f)
	}
	if n <= 2*f+1 {
		return nil, fmt.Errorf("topology: chord needs n > 2f+1 (n=%d, f=%d)", n, f)
	}
	return Circulant(n, offsets(2*f+1))
}

// offsets returns [1, 2, ..., k].
func offsets(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Circulant builds a directed circulant graph: edge (i, (i+k) mod n) for
// every offset k in offs. Offsets must be in [1, n-1]; duplicates collapse.
func Circulant(n int, offs []int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for _, k := range offs {
		if k < 1 || k >= n {
			return nil, fmt.Errorf("topology: circulant offset %d out of range [1,%d)", k, n)
		}
		for i := 0; i < n; i++ {
			b.AddEdge(i, (i+k)%n)
		}
	}
	return b.Build()
}

// UndirectedRing builds the cycle graph on n nodes with each undirected link
// realized as two directed edges. Requires n >= 3.
func UndirectedRing(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs n >= 3, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddUndirected(i, (i+1)%n)
	}
	return b.Build()
}

// DirectedCycle builds the directed cycle 0 -> 1 -> ... -> n-1 -> 0.
func DirectedCycle(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: directed cycle needs n >= 2, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Wheel builds a hub node 0 connected (undirected) to every rim node, with
// the rim 1..n-1 forming an undirected cycle. Requires n >= 4.
func Wheel(n int) (*graph.Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("topology: wheel needs n >= 4, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddUndirected(0, i)
	}
	for i := 1; i < n; i++ {
		next := i + 1
		if next == n {
			next = 1
		}
		b.AddUndirected(i, next)
	}
	return b.Build()
}

// Star builds hub node 0 with undirected links to every other node.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs n >= 2, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddUndirected(0, i)
	}
	return b.Build()
}

// Grid builds a rows x cols undirected grid (4-neighborhood).
func Grid(rows, cols int) (*graph.Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("topology: grid needs positive dimensions, got %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				b.AddUndirected(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				b.AddUndirected(id(r, c), id(r, c+1))
			}
		}
	}
	return b.Build()
}

// Torus builds a rows x cols undirected torus (grid with wraparound).
// Requires rows, cols >= 3 so wrap edges are distinct.
func Torus(rows, cols int) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("topology: torus needs dimensions >= 3, got %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddUndirected(id(r, c), id((r+1)%rows, c))
			b.AddUndirected(id(r, c), id(r, (c+1)%cols))
		}
	}
	return b.Build()
}

// RandomDigraph builds a directed Erdős–Rényi graph: each ordered pair
// (i, j), i != j, is an edge independently with probability p.
func RandomDigraph(n int, p float64, rng *rand.Rand) (*graph.Graph, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("topology: probability %v out of [0,1]", p)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: nil rng (pass rand.New(rand.NewSource(seed)))")
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// RandomInRegular builds a random digraph where every node has in-degree
// exactly d: each node selects d distinct in-neighbors uniformly at random.
// Requires 1 <= d <= n-1.
func RandomInRegular(n, d int, rng *rand.Rand) (*graph.Graph, error) {
	if d < 1 || d >= n {
		return nil, fmt.Errorf("topology: in-degree %d out of [1,%d)", d, n)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: nil rng (pass rand.New(rand.NewSource(seed)))")
	}
	b := graph.NewBuilder(n)
	others := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		others = others[:0]
		for u := 0; u < n; u++ {
			if u != v {
				others = append(others, u)
			}
		}
		rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
		for _, u := range others[:d] {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// RemoveEdges returns a copy of g with the listed directed edges removed.
// Missing edges are ignored. Used to perturb topologies in robustness
// studies.
func RemoveEdges(g *graph.Graph, drop [][2]int) (*graph.Graph, error) {
	gone := make(map[[2]int]bool, len(drop))
	for _, e := range drop {
		gone[e] = true
	}
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(from, to int) {
		if !gone[[2]int{from, to}] {
			b.AddEdge(from, to)
		}
	})
	return b.Build()
}

// AddEdges returns a copy of g with the listed directed edges added.
func AddEdges(g *graph.Graph, add [][2]int) (*graph.Graph, error) {
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(from, to int) { b.AddEdge(from, to) })
	for _, e := range add {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
