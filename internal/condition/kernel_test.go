package condition

import (
	"math/rand"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// scanAgainstReference runs one ground scan through the kernel on s and
// through the independent reference, and fails t unless the witnesses and
// all three counters agree and the walk leaves its prefix row empty.
func scanAgainstReference(t testing.TB, s *insulationScratch, ground nodeset.Set, threshold int) pairOutcome {
	t.Helper()
	var want, got pairOutcome
	want.w = referenceFindPair(s.g, ground, threshold, &want.cc)
	got.w = findDisjointInsulatedPair(s, ground, threshold, &got.cc)
	if !got.equal(want) {
		t.Fatalf("%v t=%d ground %v:\nkernel    %v\nreference %v", s.g, threshold, ground, got, want)
	}
	if ones(s.cur) != 0 {
		t.Fatalf("%v t=%d ground %v: the walk left %x in its prefix row", s.g, threshold, ground, s.cur)
	}
	return want
}

// peelAgainstReference peels sub ⊆ ground on s, whose ground must be set,
// and fails t unless it equals maximalInsulatedSubset.
func peelAgainstReference(t testing.TB, s *insulationScratch, ground, sub nodeset.Set, threshold int) {
	t.Helper()
	got := peelSet(s, sub, threshold)
	if want := maximalInsulatedSubset(s.g, ground, sub, threshold); !got.Equal(want) {
		t.Fatalf("%v t=%d ground %v: peel of %v = %v, reference %v", s.g, threshold, ground, sub, got, want)
	}
}

// plantedPairs returns a digraph on n nodes in which every node has exactly
// d in-neighbors and each pair {2i, 2i+1}, i < pairs, is mutual: at
// threshold d such a pair is insulated on any ground that holds both.
func plantedPairs(n, d, pairs int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		from := map[int]bool{}
		if v < 2*pairs {
			from[v^1] = true
		}
		for len(from) < d {
			if u := rng.Intn(n); u != v {
				from[u] = true
			}
		}
		for u := range from {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// TestWideGroundsMatchReference runs the kernel on grounds of 65 to 80
// members, whose rows take two words, on graphs that violate at small |L|:
// the witness and the counters must be the independent reference's, and the
// peel must be maximalInsulatedSubset on random subsets. The whole check of
// such a graph with n−f ≤ 62 decides at its first fault set, F = ∅.
func TestWideGroundsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	type tc struct {
		g         *graph.Graph
		threshold int
	}
	var cases []tc
	for _, n := range []int{65, 70, 80} {
		cycle := mustGraph(t)(topology.DirectedCycle(n))
		cases = append(cases, tc{cycle, 2}, tc{cycle, n - 61})
		ring := mustGraph(t)(topology.UndirectedRing(n))
		cases = append(cases, tc{ring, 2})
	}
	for i := 0; i < 12; i++ {
		n := 65 + rng.Intn(16)
		d := 2 + rng.Intn(3)
		cases = append(cases, tc{plantedPairs(n, d, 1+rng.Intn(3), rng), d})
	}
	for _, c := range cases {
		n := c.g.N()
		s := newInsulationScratch(c.g)
		for trial := 0; trial < 6; trial++ {
			ground := nodeset.Universe(n)
			if trial > 0 {
				for _, v := range rng.Perm(n)[:rng.Intn(min(4, n-65)+1)] {
					ground.Remove(v)
				}
			}
			want := scanAgainstReference(t, s, ground, c.threshold)
			if want.w == nil || want.w.L.Count() > 2 {
				t.Fatalf("%v t=%d ground %v: reference found %v, want a witness with |L| ≤ 2", c.g, c.threshold, ground, want)
			}
			if s.w != 2 {
				t.Fatalf("%d-member ground scanned at %d words a row, want 2", ground.Count(), s.w)
			}
			for k := 0; k < 8; k++ {
				sub := ground.Clone()
				ground.ForEach(func(v int) bool {
					if rng.Intn(4) == 0 {
						sub.Remove(v)
					}
					return true
				})
				peelAgainstReference(t, s, ground, sub, c.threshold)
			}
		}
		f := n - 62
		res, err := CheckThreshold(c.g, f, c.threshold)
		if err != nil {
			t.Fatal(err)
		}
		var want pairOutcome
		want.w = referenceFindPair(c.g, nodeset.Universe(n), c.threshold, &want.cc)
		got := pairOutcome{w: res.Witness, cc: res.work()}
		if res.FaultSetsExamined != 1 || !res.Witness.F.Empty() || !got.equal(want) {
			t.Fatalf("%v f=%d t=%d: check decided %d fault sets with %v, reference on F = ∅ %v",
				c.g, f, c.threshold, res.FaultSetsExamined, got, want)
		}
		if err := res.Witness.Verify(c.g, f, c.threshold); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroundScanAllocatesNothing pins the kernel's allocation contract: a
// ground scan on a warm scratch that finds no witness allocates nothing.
func TestGroundScanAllocatesNothing(t *testing.T) {
	g := mustGraph(t)(topology.Chord(16, 2))
	threshold := SyncThreshold(2)
	s := newInsulationScratch(g)
	ground := nodeset.Universe(g.N())
	ground.Remove(3)
	var cc WorkCounters
	allocs := testing.AllocsPerRun(20, func() {
		if w := findDisjointInsulatedPair(s, ground, threshold, &cc); w != nil {
			t.Fatalf("chord(16,2) violated at F = {3}: %v", w)
		}
	})
	if allocs != 0 {
		t.Fatalf("a satisfied ground scan allocated %.1f times, want 0", allocs)
	}
}

// fuzzGround decodes data into a digraph on 2–16 nodes, a ground, a
// subset of it to peel, and a threshold in 1–4. Node v's in-neighbors are
// the bits of two data bytes; missing bytes read as zero.
func fuzzGround(data []byte) (g *graph.Graph, ground, sub nodeset.Set, threshold int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	word := func(i int) int { return at(i) | at(i+1)<<8 }
	n := 2 + at(0)%15
	threshold = 1 + at(1)%4
	ground, sub = nodeset.New(n), nodeset.New(n)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if word(2)>>v&1 == 0 {
			ground.Add(v)
			if word(4)>>v&1 == 0 {
				sub.Add(v)
			}
		}
		in := word(6 + 2*v)
		for u := 0; u < n; u++ {
			if u != v && in>>u&1 != 0 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild(), ground, sub, threshold
}

// FuzzGroundScan checks the kernel against the independent reference on
// arbitrary small digraphs: the ground scan's witness and three counters,
// and the peel of an arbitrary subset of the ground.
func FuzzGroundScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{14, 2, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xf0})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 6+32)
		rng.Read(seed)
		seed[2], seed[3] = byte(rng.Intn(4)), 0
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ground, sub, threshold := fuzzGround(data)
		s := newInsulationScratch(g)
		scanAgainstReference(t, s, ground, threshold)
		s.setGround(ground)
		if ground.Count() > 0 {
			peelAgainstReference(t, s, ground, sub, threshold)
		}
	})
}
