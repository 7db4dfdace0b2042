package experiments

import (
	"context"
	"fmt"

	"iabc"
	"iabc/internal/topology"
)

// e11Conjecture probes the paper's Section 6.1 conjecture:
//
//	"We conjecture that a core network with n = 3f+1 has the smallest
//	 number of edges possible in any undirected network of 3f+1 nodes for
//	 which an iterative approximate consensus algorithm exists."
//
// The conjecture is open in the paper; this experiment decides it
// computationally for f = 1 and f = 2.
//
// For f = 1 (n = 4): Corollary 3 forces degree ≥ 3 everywhere, so ≥ 6
// undirected edges — and the only 4-node graph with minimum degree 3 is K4,
// which *is* CoreNetwork(4,1). The experiment exhausts all 64 labeled
// graphs to confirm that exactly one satisfying graph attains the minimum.
//
// For f = 2 (n = 7): CoreNetwork(7,2) has 20 undirected edges. Corollary 3
// forces degree ≥ 5, i.e. ≥ ⌈7·5/2⌉ = 18 edges; a 7-node graph with
// minimum degree 5 and 18 or 19 edges is exactly K7 minus a matching of
// size 3 or 2. The experiment runs the exact checker on every labeled
// matching-complement (105 + 105 graphs). Any satisfying instance refutes
// the conjecture; none confirms that 20 is optimal and the core network
// achieves the optimum.
func e11Conjecture(ctx context.Context) ([]Table, error) {
	// ---- f = 1, n = 4: exhaustive over all labeled undirected graphs.
	var pairs4 [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			pairs4 = append(pairs4, [2]int{i, j})
		}
	}
	core4, err := iabc.CoreNetwork(4, 1)
	if err != nil {
		return nil, err
	}
	checked, minEdges, atMin := 0, -1, 0
	for mask := 0; mask < 1<<len(pairs4); mask++ {
		b := iabc.NewBuilder(4)
		edges := 0
		for bit, e := range pairs4 {
			if mask&(1<<bit) != 0 {
				b.AddUndirected(e[0], e[1])
				edges++
			}
		}
		g, err := b.Build()
		if err != nil {
			return nil, err
		}
		checked++
		sat, err := satisfied(ctx, g, 1)
		if err != nil {
			return nil, err
		}
		switch {
		case !sat:
		case minEdges < 0 || edges < minEdges:
			minEdges, atMin = edges, 1
		case edges == minEdges:
			atMin++
		}
	}
	holds1 := minEdges == core4.UndirectedEdgeCount()

	// ---- f = 2, n = 7: the only candidates below the core network's 20
	// edges are K7 minus a matching (Corollary 3 forces min degree 5, so
	// the complement has max degree ≤ 1).
	core7, err := iabc.CoreNetwork(7, 2)
	if err != nil {
		return nil, err
	}
	k7, err := iabc.Complete(7)
	if err != nil {
		return nil, err
	}
	// satisfying counts the size-k matchings whose complement in K7
	// satisfies Theorem 1 at f = 2.
	satisfying := func(k int) (checked, sat int, err error) {
		for _, m := range matchings(7, k) {
			var drop [][2]int
			for _, e := range m {
				drop = append(drop, e, [2]int{e[1], e[0]})
			}
			g, err := topology.RemoveEdges(k7, drop)
			if err != nil {
				return 0, 0, err
			}
			ok, err := satisfied(ctx, g, 2)
			if err != nil {
				return 0, 0, err
			}
			checked++
			if ok {
				sat++
			}
		}
		return checked, sat, nil
	}
	checked18, sat18, err := satisfying(3)
	if err != nil {
		return nil, err
	}
	checked19, sat19, err := satisfying(2)
	if err != nil {
		return nil, err
	}
	minEdges2 := 20 // the core network's count; the Corollary 3 floor is 18
	switch {
	case sat18 > 0:
		minEdges2 = 18
	case sat19 > 0:
		minEdges2 = 19
	}
	holds2 := minEdges2 == core7.UndirectedEdgeCount()

	return []Table{{
		Header: []string{"f", "n", "search space", "min edges (satisfying)", "core edges", "conjecture holds"},
		Rows: []Row{
			row(holds1 && atMin == 1, 1, 4, fmt.Sprintf("%d labeled graphs", checked),
				minEdges, core4.UndirectedEdgeCount(), holds1),
			row(holds2, 2, 7, fmt.Sprintf("K7−M3: %d, K7−M2: %d", checked18, checked19),
				minEdges2, core7.UndirectedEdgeCount(), holds2),
		},
	}, note(sat18 == 0 && sat19 == 0,
		"f=2 details: %d/%d of the 18-edge and %d/%d of the 19-edge candidates satisfy Theorem 1",
		sat18, checked18, sat19, checked19)}, nil
}

// matchings enumerates all labeled matchings of exactly size k on n
// vertices.
func matchings(n, k int) [][][2]int {
	var out [][][2]int
	var rec func(used uint, start int, cur [][2]int)
	rec = func(used uint, start int, cur [][2]int) {
		if len(cur) == k {
			m := make([][2]int, k)
			copy(m, cur)
			out = append(out, m)
			return
		}
		for i := start; i < n; i++ {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if used&(1<<uint(j)) != 0 {
					continue
				}
				rec(used|1<<uint(i)|1<<uint(j), i+1, append(cur, [2]int{i, j}))
			}
			// The smallest unused vertex is either matched now or never:
			// restricting the outer loop to i = smallest unused avoids
			// duplicate orderings... but matchings that skip i entirely are
			// produced by treating i as permanently unmatched:
			rec(used|1<<uint(i), i+1, cur)
			return
		}
	}
	rec(0, 0, nil)
	return out
}
