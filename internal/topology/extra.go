package topology

import (
	"fmt"

	"iabc/internal/graph"
)

// Additional families used by the extension experiments and tests.

// CompleteBipartite builds K_{a,b}: every left node linked (undirected) to
// every right node, none within a side. Bipartite graphs are a stress case
// for the condition: each side is insulated from itself.
func CompleteBipartite(a, b int) (*graph.Graph, error) {
	if a < 1 || b < 1 {
		return nil, fmt.Errorf("topology: bipartite sides must be ≥ 1, got %d,%d", a, b)
	}
	bd := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := a; j < a+b; j++ {
			bd.AddUndirected(i, j)
		}
	}
	return bd.Build()
}

// Barbell builds two k-cliques joined by a path of bridge nodes — the
// canonical "two communities, thin pipe" topology that the Theorem 1
// condition rejects for f ≥ 1. bridge = 0 joins the cliques directly with a
// single undirected edge.
func Barbell(k, bridge int) (*graph.Graph, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: barbell cliques need k ≥ 2, got %d", k)
	}
	if bridge < 0 {
		return nil, fmt.Errorf("topology: negative bridge length %d", bridge)
	}
	n := 2*k + bridge
	b := graph.NewBuilder(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddUndirected(i, j)     // left clique: 0..k-1
			b.AddUndirected(k+i, k+j) // right clique: k..2k-1
		}
	}
	// Chain: left clique's node k-1 — bridge nodes 2k..2k+bridge-1 — right
	// clique's node k.
	prev := k - 1
	for t := 0; t < bridge; t++ {
		b.AddUndirected(prev, 2*k+t)
		prev = 2*k + t
	}
	b.AddUndirected(prev, k)
	return b.Build()
}

// PFCN builds a Partially Fully Connected Network in the spirit of
// Azadmanesh & Bajwa's construction cited by the paper ([1]): a fully
// connected backbone of hubs, with each non-hub node attached (undirected)
// to every hub but to no other non-hub. With hubs = 2f+1 this coincides
// with the paper's core network; larger hub counts trade edges for
// robustness margin.
func PFCN(n, hubs int) (*graph.Graph, error) {
	if hubs < 1 || hubs > n {
		return nil, fmt.Errorf("topology: PFCN needs 1 ≤ hubs ≤ n, got hubs=%d n=%d", hubs, n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < hubs; i++ {
		for j := i + 1; j < hubs; j++ {
			b.AddUndirected(i, j)
		}
	}
	for v := hubs; v < n; v++ {
		for u := 0; u < hubs; u++ {
			b.AddUndirected(v, u)
		}
	}
	return b.Build()
}
