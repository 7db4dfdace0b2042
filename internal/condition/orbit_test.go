package condition

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// referenceScan is the plain checker the orbit scanner replaced: every fault
// set of the canonical enumeration decided on its own ground, early exit at
// the first violation. It shares findDisjointInsulatedPair with the scanner
// and nothing else — no masks, no generators, no orbit table, no memo.
func referenceScan(g *graph.Graph, f, threshold int) Result {
	n := g.N()
	universe := nodeset.Universe(n)
	res := Result{Satisfied: true}
	scratch := newInsulationScratch(g)
	var cc WorkCounters
	for fSize := 0; fSize <= f && fSize <= n && res.Satisfied; fSize++ {
		nodeset.SubsetsAscendingSize(universe, fSize, fSize, func(fSet nodeset.Set) bool {
			res.FaultSetsExamined++
			ground := universe.Difference(fSet)
			if w := findDisjointInsulatedPair(scratch, ground, threshold, &cc); w != nil {
				w.F = fSet.Clone()
				w.C = ground.Difference(w.L).Difference(w.R)
				res.Satisfied, res.Witness = false, w
			}
			return res.Satisfied
		})
	}
	res.setWork(cc)
	return res
}

func relabelGraph(g *graph.Graph, perm []int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(u, v int) { b.AddEdge(perm[u], perm[v]) })
	return b.MustBuild()
}

func mustGraph(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// TestFaultSetOrbitCounts pins the orbit table on graphs whose group is
// known, as built and under random relabellings: the count is a property of
// the graph, not of its node names.
func TestFaultSetOrbitCounts(t *testing.T) {
	must := mustGraph(t)
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		f      int
		orbits int
	}{
		{"chord(16,2)", must(topology.Chord(16, 2)), 2, 10}, // ∅, one node, 8 differences
		{"K9 f=2", must(topology.Complete(9)), 2, 3},        // one orbit per size
		{"K13 f=4", must(topology.Complete(13)), 4, 5},
		{"core(19,6)", must(topology.CoreNetwork(19, 6)), 6, 28}, // (core, outer) splits of each size
		{"hypercube(4) f=1", must(topology.Hypercube(4)), 1, 2},
	} {
		for trial, g := range []*graph.Graph{tc.g, relabelGraph(tc.g, rng.Perm(tc.g.N())), relabelGraph(tc.g, rng.Perm(tc.g.N()))} {
			s, err := NewShardScanner(g, tc.f, SyncThreshold(tc.f))
			if err != nil {
				t.Fatal(err)
			}
			if len(s.rep) != tc.orbits {
				t.Errorf("%s labelling %d: %d orbits of %d fault sets, want %d", tc.name, trial, len(s.rep), s.total, tc.orbits)
			}
			for o, r := range s.rep {
				if s.orbit[r] != int32(o) || (o > 0 && r <= s.rep[o-1]) {
					t.Fatalf("%s: rep[%d] = %d is not the ascending lowest index of its orbit", tc.name, o, r)
				}
			}
			for i, o := range s.orbit {
				if int(s.rep[o]) > i {
					t.Fatalf("%s: index %d has representative %d above it", tc.name, i, s.rep[o])
				}
			}
		}
	}
	// No symmetry, no table: a seeded random digraph, f = 0, and an order the
	// binomial table does not cover all run under the identity group.
	asym := must(topology.RandomDigraph(12, 0.4, rand.New(rand.NewSource(11))))
	for _, tc := range []struct {
		g *graph.Graph
		f int
	}{{asym, 2}, {must(topology.Complete(9)), 0}, {must(topology.Complete(64)), 2}} {
		s, err := NewShardScanner(tc.g, tc.f, SyncThreshold(tc.f))
		if err != nil {
			t.Fatal(err)
		}
		if s.orbit != nil || s.memo != nil {
			t.Errorf("n=%d f=%d: orbit table built, want the identity group", tc.g.N(), tc.f)
		}
	}
}

// faultSetMask is fault set i over n ≤ 64 nodes as a mask.
func faultSetMask(n int, i int64) (mask uint64) {
	faultSet(n, i, func(v int) { mask |= 1 << uint(v) })
	return mask
}

// rankFaultSet is faultSet's inverse, counted forwards: the sets of smaller
// size, then, member by member, the same-size sets that share the members
// so far and take a lower next one.
func rankFaultSet(n int, mask uint64) int64 {
	k := bits.OnesCount64(mask)
	r := NumFaultSets(n, k-1)
	for j, next := 0, 0; mask != 0; mask, j = mask&(mask-1), j+1 {
		v := bits.TrailingZeros64(mask)
		for u := next; u < v; u++ {
			r += binom(n-1-u, k-1-j)
		}
		next = v + 1
	}
	return r
}

// plainOrbitTable is the orbit table as it was built before twin classes:
// every generator applied to every fault set of every orbit, orbits numbered
// by their lowest index. It shares faultSet and binom with the scanner and
// nothing else.
func plainOrbitTable(n, f int, gens [][]int) (orbit, rep []int32) {
	if len(gens) == 0 {
		return nil, nil
	}
	orbit = make([]int32, NumFaultSets(n, f))
	for i := range orbit {
		orbit[i] = -1
	}
	for i := range orbit {
		if orbit[i] >= 0 {
			continue
		}
		o := int32(len(rep))
		rep = append(rep, int32(i))
		orbit[i] = o
		stack := []uint64{faultSetMask(n, int64(i))}
		for len(stack) > 0 {
			mask := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, perm := range gens {
				var img uint64
				for m := mask; m != 0; m &= m - 1 {
					img |= 1 << uint(perm[bits.TrailingZeros64(m)])
				}
				if j := rankFaultSet(n, img); orbit[j] < 0 {
					orbit[j] = o
					stack = append(stack, img)
				}
			}
		}
	}
	return orbit, rep
}

// TestOrbitTableMatchesPlainClosure is the differential gate of the twin
// classes: on graphs with twins only (core networks, K_n, K_{a,b}), twins
// beside generators that permute whole classes (K_{6,6} with an edge added
// inside each side, core(13,4) with one core–outer link cut), no twins at
// all (chord, hypercube, torus, wheel, barbell, random digraphs) and a mix
// (star, PFCN), each as built and relabelled, and at every generator budget,
// the scanner's orbit and rep arrays equal the plain closure's exactly.
func TestOrbitTableMatchesPlainClosure(t *testing.T) {
	must := mustGraph(t)
	rng := rand.New(rand.NewSource(41))
	type zooCase struct {
		name string
		g    *graph.Graph
		f    int
	}
	var zoo []zooCase
	for n := 7; n <= 25; n++ {
		cf := (n - 1) / 3
		zoo = append(zoo, zooCase{fmt.Sprintf("core(%d,%d)", n, cf), must(topology.CoreNetwork(n, cf)), min(cf, 5)})
	}
	for _, n := range []int{5, 9, 12} {
		zoo = append(zoo, zooCase{fmt.Sprintf("K%d", n), must(topology.Complete(n)), 3})
	}
	for _, ab := range [][2]int{{3, 4}, {5, 6}, {4, 4}} {
		zoo = append(zoo, zooCase{fmt.Sprintf("K%d,%d", ab[0], ab[1]), must(topology.CompleteBipartite(ab[0], ab[1])), 3})
	}
	zoo = append(zoo,
		zooCase{"K6,6 + 0↔1, 6↔7", must(topology.AddEdges(must(topology.CompleteBipartite(6, 6)), [][2]int{{0, 1}, {1, 0}, {6, 7}, {7, 6}})), 4},
		zooCase{"core(13,4) − 0↔9", must(topology.RemoveEdges(must(topology.CoreNetwork(13, 4)), [][2]int{{0, 9}, {9, 0}})), 4},
		zooCase{"chord(12,2)", must(topology.Chord(12, 2)), 2},
		zooCase{"chord(16,2)", must(topology.Chord(16, 2)), 3},
		zooCase{"hypercube(4)", must(topology.Hypercube(4)), 3},
		zooCase{"hypercube(5)", must(topology.Hypercube(5)), 2},
		zooCase{"torus(4,4)", must(topology.Torus(4, 4)), 3},
		zooCase{"wheel(9)", must(topology.Wheel(9)), 3},
		zooCase{"star(10)", must(topology.Star(10)), 4},
		zooCase{"PFCN(14,4)", must(topology.PFCN(14, 4)), 4},
		zooCase{"barbell(5,2)", must(topology.Barbell(5, 2)), 3},
	)
	for i := 0; i < 30; i++ {
		n := 6 + rng.Intn(8)
		zoo = append(zoo, zooCase{fmt.Sprintf("random %d", i), must(topology.RandomDigraph(n, 0.3+0.6*rng.Float64(), rng)), 1 + rng.Intn(3)})
	}
	mixed := 0 // cases with twin classes and generators beyond them
	for _, tc := range zoo {
		for trial, g := range []*graph.Graph{tc.g, relabelGraph(tc.g, rng.Perm(tc.g.N()))} {
			for _, budget := range []int{0, 1, graph.AutSearchBudget} {
				gens := g.AutomorphismGenerators(budget)
				if classes, rest := twinClasses(g.N(), gens); classes != nil && len(rest) > 0 {
					mixed++
				}
				wantOrbit, wantRep := plainOrbitTable(g.N(), tc.f, gens)
				s := newShardScanner(g, tc.f, SyncThreshold(tc.f), budget)
				if !slices.Equal(s.orbit, wantOrbit) || !slices.Equal(s.rep, wantRep) {
					t.Fatalf("%s labelling %d budget %d: %d orbits, the plain closure finds %d", tc.name, trial, budget, len(s.rep), len(wantRep))
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no case had twin classes beside other generators; the closure over classes went untested")
	}
	// The table needs only a permutation group, not a graph: random
	// transpositions beside random permutations make classes that merge only
	// through conjugation, which no automorphism search above produced.
	for trial := 0; trial < 200; trial++ {
		n, f := 4+rng.Intn(7), 1+rng.Intn(4)
		var gens [][]int
		for range 1 + rng.Intn(3) {
			perm := rng.Perm(n)
			if rng.Intn(2) == 0 {
				perm = make([]int, n)
				for v := range perm {
					perm[v] = v
				}
				a, b := rng.Intn(n), rng.Intn(n-1)
				if b >= a {
					b++
				}
				perm[a], perm[b] = b, a
			}
			gens = append(gens, perm)
		}
		s := &orbitTable{g: graph.NewBuilder(n).MustBuild(), f: f, total: NumFaultSets(n, f)}
		s.buildOrbits(gens)
		wantOrbit, wantRep := plainOrbitTable(n, f, gens)
		if !slices.Equal(s.orbit, wantOrbit) || !slices.Equal(s.rep, wantRep) {
			t.Fatalf("n=%d f=%d generators %v: %d orbits, the plain closure finds %d", n, f, gens, len(s.rep), len(wantRep))
		}
	}
}

// TestOrbitScannerMatchesReference is the differential gate of the orbit
// cut: on satisfied and violating graphs, symmetric and not, at both
// thresholds, the scanner reproduces the every-fault-set reference — verdict,
// witness, all four counters — sequentially, with 2 and 4 workers, and
// composed from index ranges of several sizes; and it does so whatever the
// generator search's step budget found (0: nothing; 1: what one
// individualisation settles; production), which proves a partial generator
// set changes nothing but speed.
func TestOrbitScannerMatchesReference(t *testing.T) {
	must := mustGraph(t)
	rng := rand.New(rand.NewSource(29))
	type zooCase struct {
		name string
		g    *graph.Graph
		f    int
	}
	zoo := []zooCase{
		{"chord(16,2)", must(topology.Chord(16, 2)), 2},      // satisfied, vertex-transitive
		{"chord(7,2)", must(topology.Chord(7, 2)), 2},        // violated (§6.3)
		{"chord(10,2)", must(topology.Chord(10, 2)), 2},      // violated
		{"chord(12,2)", must(topology.Chord(12, 2)), 2},      // violated
		{"chord(11,3)", must(topology.Chord(11, 3)), 3},      // violated
		{"core(13,4)", must(topology.CoreNetwork(13, 4)), 4}, // satisfied, S₉×S₄
		{"core(10,3) f=4", must(topology.CoreNetwork(10, 3)), 4},
		{"hypercube(4)", must(topology.Hypercube(4)), 1},
		{"hypercube(3) f=2", must(topology.Hypercube(3)), 2},
		{"K10 f=3", must(topology.Complete(10)), 3},
		{"torus(4,4)", must(topology.Torus(4, 4)), 1},
		{"wheel(9)", must(topology.Wheel(9)), 2},
		{"bipartite(5,6)", must(topology.CompleteBipartite(5, 6)), 2},
	}
	zoo = append(zoo, zooCase{"relabelled chord(16,2)", relabelGraph(zoo[0].g, rng.Perm(16)), 2})
	zoo = append(zoo, zooCase{"relabelled chord(12,2)", relabelGraph(zoo[3].g, rng.Perm(12)), 2})
	for i := 0; i < 6; i++ {
		n := 8 + rng.Intn(5)
		zoo = append(zoo, zooCase{fmt.Sprintf("random %d", i), must(topology.RandomDigraph(n, 0.4+0.5*rng.Float64(), rng)), 1 + rng.Intn(2)})
	}
	ctx := context.Background()
	for _, tc := range zoo {
		for _, threshold := range []int{SyncThreshold(tc.f), AsyncThreshold(tc.f)} {
			want := referenceScan(tc.g, tc.f, threshold)
			for _, budget := range []int{0, 1, graph.AutSearchBudget} {
				t.Run(fmt.Sprintf("%s t=%d budget=%d", tc.name, threshold, budget), func(t *testing.T) {
					for _, workers := range []int{1, 2, 4} {
						fr, _, err := LoadScanFrontier(ctx, nil, tc.g, tc.f, threshold, 0)
						if err != nil {
							t.Fatal(err)
						}
						got, err := newShardScanner(tc.g, tc.f, threshold, budget).check(ctx, workers, nil, fr)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						resultEqual(t, got, want)
					}
					scanner := newShardScanner(tc.g, tc.f, threshold, budget)
					for _, chunk := range []int64{1, 5, 37, scanner.NumFaultSets()} {
						resultEqual(t, composeRanges(t, scanner, chunk), want)
					}
				})
			}
		}
	}
}

// TestParallelCountersMatchSequentialOnViolation pins the canonical-order
// fold: on violating graphs the parallel totals are the satisfied prefix plus
// the violating set's own delta, whatever the workers raced ahead to. The
// pre-fold scan counted every fault set a worker had started, and on these
// two graphs reported 19 or 30 (and 14 or 15) fault sets from run to run; CI
// repeats the test under -race -count.
func TestParallelCountersMatchSequentialOnViolation(t *testing.T) {
	must := mustGraph(t)
	for _, n := range []int{12, 10} {
		g := must(topology.Chord(n, 2))
		want, err := CheckThreshold(g, 2, SyncThreshold(2))
		if err != nil {
			t.Fatal(err)
		}
		if want.Satisfied {
			t.Fatalf("chord(%d,2) should be violated at f=2", n)
		}
		for run := 0; run < 25; run++ {
			for _, workers := range []int{2, 4} {
				got, err := CheckScan(context.Background(), g, 2, SyncThreshold(2), ScanOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				resultEqual(t, got, want)
			}
		}
	}
}

// TestShardScanViolationInsideOrbit covers the one place a violating index is
// not its own representative: a range that starts past the representative.
// The range still stops at its first index, with a witness naming that
// index's own fault set.
func TestShardScanViolationInsideOrbit(t *testing.T) {
	g := mustGraph(t)(topology.Chord(12, 2))
	threshold := SyncThreshold(2)
	s, err := NewShardScanner(g, 2, threshold)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.ScanRange(context.Background(), 0, s.NumFaultSets())
	if err != nil || full.Violation < 0 {
		t.Fatalf("full range: %+v, %v", full, err)
	}
	var checked int
	for i := full.Violation + 1; i < s.NumFaultSets(); i++ {
		if _, rep := s.slot(i); rep != full.Violation {
			continue
		}
		rr, err := s.ScanRange(context.Background(), i, s.NumFaultSets())
		if err != nil {
			t.Fatal(err)
		}
		if rr.Violation != i || rr.Completed != 0 || rr.Witness == nil {
			t.Fatalf("range from %d: %+v, want a violation at its first index", i, rr)
		}
		if err := rr.Witness.Verify(g, 2, threshold); err != nil {
			t.Fatalf("range from %d: %v", i, err)
		}
		if want := referenceScanAt(g, threshold, rr.Witness.F); !rr.Witness.L.Equal(want.L) || !rr.Witness.R.Equal(want.R) {
			t.Fatalf("range from %d: witness %v, own-ground scan gives %v", i, rr.Witness, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("the violating orbit has a single member; the test exercised nothing")
	}
}

// referenceScanAt scans the one ground V−F.
func referenceScanAt(g *graph.Graph, threshold int, f nodeset.Set) *Witness {
	var cc WorkCounters
	return findDisjointInsulatedPair(newInsulationScratch(g), f.Complement(), threshold, &cc)
}
