package condition

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
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
			orbit := orbitsByIndex(s)
			for o, r := range s.rep {
				if orbit[r] != int32(o) || (o > 0 && r <= s.rep[o-1]) {
					t.Fatalf("%s: rep[%d] = %d is not the ascending lowest index of its orbit", tc.name, o, r)
				}
			}
			for i, o := range orbit {
				if s.rep[o] > int64(i) {
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
		if s.rep != nil || s.memo != nil {
			t.Errorf("n=%d f=%d: orbits built, want the identity group", tc.g.N(), tc.f)
		}
	}
}

// orbitsByIndex returns the orbit of every index of s, whose orbits are a
// table or count vectors: a vector's orbit is looked up by the lowest member
// of the index's vector, the |F ∩ B| lowest nodes of each block B.
func orbitsByIndex(s *ShardScanner) []int32 {
	if s.orbit != nil {
		return s.orbit
	}
	vector := map[uint64]int32{}
	for j, m := range s.low {
		vector[m] = s.vorbit[j]
	}
	orbit := make([]int32, s.total)
	for i := range orbit {
		var low uint64
		for _, blk := range s.blocks {
			low |= lowest(blk, bits.OnesCount64(faultSetMask(s.g.N(), int64(i))&blk))
		}
		orbit[i] = vector[low]
	}
	return orbit
}

// vectorScanner returns a scanner of (g, f, threshold) whose orbits are
// count vectors, whatever the selection rule would pick: an unbounded extent
// lifts the rule's √extent bound while they are built. g must have twins.
func vectorScanner(t *testing.T, g *graph.Graph, f, threshold int) *ShardScanner {
	t.Helper()
	s := &ShardScanner{g: g, f: f, threshold: threshold, total: math.MaxInt64, scratch: newInsulationScratch(g)}
	blocks, rest := twinClasses(g.N(), g.AutomorphismGenerators(graph.AutSearchBudget))
	if blocks == nil || !s.buildVectors(blocks, rest) {
		t.Fatalf("n=%d f=%d: no twin classes to build count vectors on", g.N(), f)
	}
	s.total = NumFaultSets(g.N(), f)
	s.memo, s.count = make([]groundResult, len(s.rep)), make([]int64, len(s.rep))
	return s
}

// tableScanner returns a scanner of (g, f, threshold) whose orbits are a
// per-index table, whatever the selection rule would pick.
func tableScanner(g *graph.Graph, f, threshold int) *ShardScanner {
	s := &ShardScanner{g: g, f: f, threshold: threshold, total: NumFaultSets(g.N(), f), scratch: newInsulationScratch(g)}
	s.buildTable(g.AutomorphismGenerators(graph.AutSearchBudget))
	s.memo, s.count = make([]groundResult, len(s.rep)), make([]int64, len(s.rep))
	return s
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
func plainOrbitTable(n, f int, gens [][]int) (orbit []int32, rep []int64) {
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
		rep = append(rep, int64(i))
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

// TestOrbitTableMatchesPlainClosure is the differential gate of the orbits:
// on graphs with twins only (core networks, K_n, K_{a,b}), twins beside
// generators that permute whole classes (K_{6,6} with an edge added inside
// each side, K_{4,4}, core(13,4) with one core–outer link cut, barbell),
// no twins at all (chord, hypercube, torus, wheel, random digraphs) and a
// mix (star, PFCN), each as built and relabelled, and at every generator
// budget, the scanner's orbits equal the plain closure's: the same
// representatives, the same orbit at every index, and, where they are count
// vectors, the same number of each orbit's members below every index. Both
// sides of the selection rule are met by graphs with twins, and where it
// picks the table, count vectors built anyway must agree too.
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
	for _, ab := range [][2]int{{3, 4}, {5, 6}, {4, 4}, {6, 6}} {
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
	mixed := 0                  // vector cases with twin classes and generators beyond them
	tabled := 0                 // cases with twin classes whose orbits are a table
	forced := map[string]bool{} // of those, cases whose vectors are compared too
	for _, tc := range zoo {
		for trial, g := range []*graph.Graph{tc.g, relabelGraph(tc.g, rng.Perm(tc.g.N()))} {
			for _, budget := range []int{0, 1, graph.AutSearchBudget} {
				gens := g.AutomorphismGenerators(budget)
				blocks, rest := twinClasses(g.N(), gens)
				wantOrbit, wantRep := plainOrbitTable(g.N(), tc.f, gens)
				s := newShardScanner(g, tc.f, SyncThreshold(tc.f), gens)
				switch {
				case s.low != nil && len(rest) > 0:
					mixed++
				case s.low == nil && blocks != nil:
					tabled++
				}
				if err := orbitsEqual(s, wantOrbit, wantRep); err != nil {
					t.Fatalf("%s labelling %d budget %d: %v", tc.name, trial, budget, err)
				}
				if s.low == nil && blocks != nil {
					// The rule picked the table; the vectors must agree too,
					// where there are at most 256 of them: the rule's bound
					// on an extent of 2¹⁶.
					v := &ShardScanner{g: g, f: tc.f, total: 1 << 16}
					if !v.buildVectors(blocks, rest) {
						continue
					}
					v.total = s.total
					forced[tc.name] = true
					if err := orbitsEqual(v, wantOrbit, wantRep); err != nil {
						t.Fatalf("%s labelling %d budget %d, count vectors: %v", tc.name, trial, budget, err)
					}
				}
			}
		}
	}
	if mixed == 0 || tabled == 0 {
		t.Fatalf("%d vector cases beside other generators, %d twin cases on a table: want some of each", mixed, tabled)
	}
	for _, name := range []string{"K4,4", "K6,6 + 0↔1, 6↔7", "barbell(5,2)"} {
		if !forced[name] {
			t.Errorf("%s: count vectors never compared; forced %v", name, forced)
		}
	}
	// The orbits need only a permutation group, not a graph: random
	// transpositions beside random permutations make classes that merge only
	// through conjugation, which no automorphism search above produced. The
	// vectors are built whatever the selection rule would pick.
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
		s := &ShardScanner{g: graph.NewBuilder(n).MustBuild(), f: f, total: math.MaxInt64}
		if blocks, rest := twinClasses(n, gens); blocks != nil {
			s.buildVectors(blocks, rest)
		}
		if s.total = NumFaultSets(n, f); s.low == nil {
			s.buildTable(gens)
		}
		wantOrbit, wantRep := plainOrbitTable(n, f, gens)
		if err := orbitsEqual(s, wantOrbit, wantRep); err != nil {
			t.Fatalf("n=%d f=%d generators %v: %v", n, f, gens, err)
		}
	}
}

// orbitsEqual compares s's orbits with the plain closure's: the
// representatives, every index's orbit, and, on count vectors, the number of
// each orbit's members below every index.
func orbitsEqual(s *ShardScanner, wantOrbit []int32, wantRep []int64) error {
	if !slices.Equal(s.rep, wantRep) {
		return fmt.Errorf("%d orbits with representatives %v, the plain closure finds %d: %v", len(s.rep), s.rep, len(wantRep), wantRep)
	}
	if wantOrbit == nil {
		return nil
	}
	if orbit := orbitsByIndex(s); !slices.Equal(orbit, wantOrbit) {
		return fmt.Errorf("orbit by index %v, the plain closure's %v", orbit, wantOrbit)
	}
	if s.low == nil {
		return nil
	}
	got, want := make([]int64, len(s.rep)), make([]int64, len(s.rep))
	for r := int64(0); ; r++ {
		if s.members(got, 0, r); !slices.Equal(got, want) {
			return fmt.Errorf("members below index %d: %v, the plain closure's %v", r, got, want)
		}
		if r == s.total {
			return nil
		}
		want[wantOrbit[r]]++
	}
}

// TestCountVectorsScaleWithOrbits pins what count vectors buy: building the
// scanner of core(34,11), whose 4.9·10⁸ fault sets would need a 1.9 GB
// per-index table, allocates under 1 MB, and core(37,12), whose 3.2·10⁹
// fault sets are past where a table is built at all, gets its 91 orbits and
// checks satisfied.
func TestCountVectorsScaleWithOrbits(t *testing.T) {
	must := mustGraph(t)
	g := must(topology.CoreNetwork(34, 11))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewShardScanner(g, 11, SyncThreshold(11))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s.low == nil || len(s.rep) != 78 {
		t.Fatalf("core(34,11): %d orbits, vectors %v; want 78 count-vector orbits", len(s.rep), s.low != nil)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
		t.Fatalf("NewShardScanner(core(34,11)) allocated %d bytes, want < 1 MB", b)
	}
	g = must(topology.CoreNetwork(37, 12))
	if s, err = NewShardScanner(g, 12, SyncThreshold(12)); err != nil {
		t.Fatal(err)
	}
	if s.total != 3231947596 || len(s.rep) != 91 {
		t.Fatalf("core(37,12): %d orbits of %d fault sets, want 91 of 3231947596", len(s.rep), s.total)
	}
	res, err := CheckScan(context.Background(), g, 12, SyncThreshold(12), ScanOptions{})
	if err != nil || !res.Satisfied || res.FaultSetsExamined != s.total {
		t.Fatalf("core(37,12): %+v, %v; want satisfied over every fault set", res, err)
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
						got, err := newShardScanner(tc.g, tc.f, threshold, tc.g.AutomorphismGenerators(budget)).check(ctx, workers, nil, fr)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						resultEqual(t, got, want)
					}
					scanner := newShardScanner(tc.g, tc.f, threshold, tc.g.AutomorphismGenerators(budget))
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
	orbit := orbitsByIndex(s)
	for i := full.Violation + 1; i < s.NumFaultSets(); i++ {
		if s.rep[orbit[i]] != full.Violation {
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

// TestScanPastViolatingRepresentative: a range that starts past a violating
// orbit's representative — a lease, or a scan resumed past it — reports the
// lowest violating member at or above its start, scanned on its own ground,
// and the counters of the prefix before it. On core(13,4) at f = 5 and on
// K_{6,6}+0↔1 at f = 4, ranges over count vectors that start at every index
// of a window around the lowest violation, and end just past the start, a
// little later or at the extent, return what the per-index table returns.
func TestScanPastViolatingRepresentative(t *testing.T) {
	must := mustGraph(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		f    int
	}{
		{"core(13,4)", must(topology.CoreNetwork(13, 4)), 5},
		{"K6,6 + 0↔1", must(topology.AddEdges(must(topology.CompleteBipartite(6, 6)), [][2]int{{0, 1}, {1, 0}})), 4},
	} {
		threshold := SyncThreshold(tc.f)
		vec := vectorScanner(t, tc.g, tc.f, threshold)
		ref := tableScanner(tc.g, tc.f, threshold)
		full, err := ref.ScanRange(ctx, 0, ref.total)
		if err != nil || full.Violation < 0 {
			t.Fatalf("%s: full range %+v, %v; want a violation", tc.name, full, err)
		}
		inside := 0 // ranges whose violation is not a representative
		for lo := max(0, full.Violation-32); lo < min(ref.total, full.Violation+256); lo++ {
			for _, hi := range []int64{lo + 1, min(lo+40, ref.total), ref.total} {
				got, err := vec.ScanRange(ctx, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.ScanRange(ctx, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s [%d,%d): count vectors give %+v, the table %+v", tc.name, lo, hi, got, want)
				}
				if got.Violation > full.Violation {
					inside++
				}
			}
		}
		if inside == 0 {
			t.Fatalf("%s: no range met a violation past the representative", tc.name)
		}
	}
}

// referenceScanAt scans the one ground V−F.
func referenceScanAt(g *graph.Graph, threshold int, f nodeset.Set) *Witness {
	var cc WorkCounters
	return findDisjointInsulatedPair(newInsulationScratch(g), f.Complement(), threshold, &cc)
}
