package topology

import "testing"

func TestCompleteBipartite(t *testing.T) {
	g, err := CompleteBipartite(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.NumEdges() != 12 { // 2*3 undirected = 12 directed
		t.Fatalf("K_{2,3}: n=%d m=%d", g.N(), g.NumEdges())
	}
	if g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Error("within-side edges present")
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(4, 1) {
		t.Error("cross-side edges missing")
	}
	if _, err := CompleteBipartite(0, 3); err == nil {
		t.Error("empty side should error")
	}
}

func TestBarbell(t *testing.T) {
	g, err := Barbell(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 {
		t.Fatalf("n = %d, want 8", g.N())
	}
	if !g.HasEdge(3, 4) || !g.HasEdge(4, 3) {
		t.Error("direct bridge missing")
	}
	if !g.IsStronglyConnected() {
		t.Error("barbell should be strongly connected")
	}

	g2, err := Barbell(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 8 {
		t.Fatalf("bridged barbell n = %d, want 8", g2.N())
	}
	// Chain: 2 - 6 - 7 - 3.
	for _, e := range [][2]int{{2, 6}, {6, 7}, {7, 3}} {
		if !g2.HasEdge(e[0], e[1]) || !g2.HasEdge(e[1], e[0]) {
			t.Errorf("bridge edge %v missing", e)
		}
	}
	if _, err := Barbell(1, 0); err == nil {
		t.Error("k=1 should error")
	}
	if _, err := Barbell(3, -1); err == nil {
		t.Error("negative bridge should error")
	}
}

func TestPFCNMatchesCoreNetworkAtMinimalHubs(t *testing.T) {
	pf, err := PFCN(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := CoreNetwork(7, 2) // core size 2f+1 = 5
	if err != nil {
		t.Fatal(err)
	}
	if !pf.Equal(cn) {
		t.Error("PFCN(n, 2f+1) should equal CoreNetwork(n, f)")
	}
	if _, err := PFCN(4, 0); err == nil {
		t.Error("hubs=0 should error")
	}
	if _, err := PFCN(4, 5); err == nil {
		t.Error("hubs>n should error")
	}
}

func TestPFCNAllHubsIsComplete(t *testing.T) {
	pf, err := PFCN(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	k5, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if !pf.Equal(k5) {
		t.Error("PFCN(n, n) should be the complete graph")
	}
}
