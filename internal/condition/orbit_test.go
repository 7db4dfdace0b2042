package condition

import (
	"context"
	"fmt"
	"math/rand"
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
