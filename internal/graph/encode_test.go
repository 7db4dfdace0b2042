package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/topology"
)

// encodingZoo returns the checker's topology zoo: the paper's core networks,
// chord networks and hypercubes, the other named families (complete,
// bipartite, circulant, rings, wheel, star, grid, torus, PFCN, barbell),
// seeded random digraphs and in-regular graphs, and a few relabelled copies.
func encodingZoo(t testing.TB) []*graph.Graph {
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var zoo []*graph.Graph
	for n := 1; n <= 25; n++ {
		zoo = append(zoo, must(topology.CoreNetwork(n, (n-1)/3)), must(topology.Complete(n)))
	}
	for _, n := range []int{7, 12, 16, 21} {
		zoo = append(zoo, must(topology.Chord(n, 2)))
	}
	for d := 1; d <= 6; d++ {
		zoo = append(zoo, must(topology.Hypercube(d)))
	}
	zoo = append(zoo,
		must(topology.CompleteBipartite(3, 4)), must(topology.CompleteBipartite(6, 6)),
		must(topology.Circulant(13, []int{1, 5})), must(topology.UndirectedRing(9)),
		must(topology.DirectedCycle(70)), must(topology.Wheel(9)), must(topology.Star(10)),
		must(topology.Grid(3, 5)), must(topology.Torus(4, 4)), must(topology.PFCN(14, 4)),
		must(topology.Barbell(5, 2)), must(topology.CoreNetwork(200, 66)),
	)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 25; i++ {
		zoo = append(zoo, must(topology.RandomDigraph(2+rng.Intn(30), rng.Float64(), rng)))
	}
	for i := 0; i < 6; i++ {
		n := 5 + rng.Intn(20)
		zoo = append(zoo, must(topology.RandomInRegular(n, 1+rng.Intn(n-1), rng)))
	}
	for _, g := range zoo[len(zoo)-3:] {
		perm := rng.Perm(g.N())
		b := graph.NewBuilder(g.N())
		g.ForEachEdge(func(from, to int) { b.AddEdge(perm[from], perm[to]) })
		zoo = append(zoo, b.MustBuild())
	}
	return zoo
}

// fmtEncode and fmtEdgeList are Encode and WriteEdgeList as they were written
// on fmt, the reference for the bytes the strconv writers produce.
func fmtEncode(g *graph.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "g1:%d", g.N())
	for i := 0; i < g.N(); i++ {
		if g.OutDegree(i) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";%d>", i)
		for k, to := range g.OutView(i) {
			if k > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", to)
		}
	}
	return sb.String()
}

func fmtEdgeList(g *graph.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n %d\n", g.N())
	g.ForEachEdge(func(from, to int) { fmt.Fprintf(&sb, "%d %d\n", from, to) })
	return sb.String()
}

// TestEncodeMatchesFmtReference pins Encode, WriteEdgeList and
// EdgeListString byte for byte to the fmt writers on the zoo: checkpoint
// keys and sweep spec identities are these strings.
func TestEncodeMatchesFmtReference(t *testing.T) {
	for i, g := range encodingZoo(t) {
		if got, want := g.Encode(), fmtEncode(g); got != want {
			t.Fatalf("graph %d (%v): Encode %q, fmt reference %q", i, g, got, want)
		}
		want := fmtEdgeList(g)
		var sb strings.Builder
		if err := g.WriteEdgeList(&sb); err != nil || sb.String() != want {
			t.Fatalf("graph %d (%v): WriteEdgeList %q (err %v), fmt reference %q", i, g, sb.String(), err, want)
		}
		if got := g.EdgeListString(); got != want {
			t.Fatalf("graph %d (%v): EdgeListString %q, fmt reference %q", i, g, got, want)
		}
		back, err := graph.Decode(g.Encode())
		if err != nil || !back.Equal(g) {
			t.Fatalf("graph %d (%v): Decode(Encode) = %v, %v", i, g, back, err)
		}
	}
}

// TestDecodeRefusesNonCanonical: Decode takes exactly Encode's strings, and
// names the byte where any other string leaves the format.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	for _, s := range []string{
		"", "g1", "g1:", "g2:3", "G1:3", " g1:3", "g1:0", "g1:-1", "g1:03", "g1:+3", "g1:3;",
		"g1:3;0", "g1:3;0>", "g1:3;0>1,", "g1:3;0>,1", "g1:3;0>1;", "g1:3;0>1 ", "g1:3;0>0",
		"g1:3;0>3", "g1:3;0>2,1", "g1:3;0>1,1", "g1:3;1>0;0>1", "g1:3;1>0;1>2", "g1:3;3>0",
		"g1:3;00>1", "g1:3;0>01", "g1:3,0>1", "g1:3>0", "g1:3;0>1>2", "g1:3;-1>0",
		"g1:99999999999999999999", "g1:3;99999999999999999999>0", "g1:3;0>1\n",
	} {
		if g, err := graph.Decode(s); err == nil {
			t.Errorf("Decode(%q) = %v, want an error", s, g)
		}
	}
	for _, s := range []string{"g1:1", "g1:3", "g1:3;0>1,2;2>0", "g1:12;11>0,10"} {
		g, err := graph.Decode(s)
		if err != nil || g.Encode() != s {
			t.Errorf("Decode(%q) = %v, %v", s, g, err)
		}
	}
}

// FuzzGraphDecode: Decode never panics, every string it accepts encodes back
// to itself and decodes to the graph a Builder makes of its edges, with the
// order EncodedOrder reads; and Decode(Encode(g)) is g for the graph the
// input's bytes describe. Decode allocates for the order it reads, so, as
// its callers do, the fuzzer bounds that order (to 1 024) first.
func FuzzGraphDecode(f *testing.F) {
	for _, g := range encodingZoo(f)[:40] {
		f.Add(g.Encode())
	}
	for _, s := range []string{"", "g1:", "g1:3;0>2,1", "g1:3;1>0;0>1", "g1:64;63>0", "g1:9;8>7,8", "g1:99999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if n, err := graph.EncodedOrder(s); err != nil || n <= 1<<10 {
			checkDecode(t, s)
		}
		if len(s) == 0 {
			return
		}
		order := 1 + int(s[0])%24
		b := graph.NewBuilder(order)
		for i := 1; i+1 < len(s); i += 2 {
			if from, to := int(s[i])%order, int(s[i+1])%order; from != to {
				b.AddEdge(from, to)
			}
		}
		g := b.MustBuild()
		back, err := graph.Decode(g.Encode())
		if err != nil || !back.Equal(g) {
			t.Fatalf("Decode(%q) = %v, %v; want the graph back", g.Encode(), back, err)
		}
	})
}

// checkDecode decodes s and, if Decode accepts it, checks what it built.
func checkDecode(t *testing.T, s string) {
	g, err := graph.Decode(s)
	if err != nil {
		return
	}
	if n, err := graph.EncodedOrder(s); err != nil || n != g.N() {
		t.Fatalf("EncodedOrder(%q) = %d, %v; Decode built %d nodes", s, n, err, g.N())
	}
	if enc := g.Encode(); enc != s {
		t.Fatalf("Decode(%q) encodes to %q", s, enc)
	}
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(from, to int) { b.AddEdge(from, to) })
	want := b.MustBuild()
	if !g.Equal(want) {
		t.Fatalf("Decode(%q) differs from its edges built", s)
	}
	for v := 0; v < g.N(); v++ {
		if !slices.Equal(g.InView(v), want.InView(v)) || !g.InSet(v).Equal(want.InSet(v)) {
			t.Fatalf("Decode(%q): in-neighbours of %d are %v, want %v", s, v, g.InView(v), want.InView(v))
		}
	}
}
