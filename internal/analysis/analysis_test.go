package analysis

import (
	"math"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/topology"
)

func TestAlpha(t *testing.T) {
	k4, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	// K4, f=1: every in-degree 3, a = 1/(3+1-2) = 1/2.
	a, err := Alpha(k4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.5) > 1e-15 {
		t.Errorf("Alpha(K4,1) = %v, want 0.5", a)
	}
	// CoreNetwork(7,2): core in-degree 6 → 1/3; peripheral 5 → 1/2. α = 1/3.
	cn, err := topology.CoreNetwork(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err = Alpha(cn, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1.0/3.0) > 1e-15 {
		t.Errorf("Alpha(core(7,2)) = %v, want 1/3", a)
	}
	// f = 0 on a cycle: in-degree 1 → 1/2.
	cyc, err := topology.DirectedCycle(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err = Alpha(cyc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.5) > 1e-15 {
		t.Errorf("Alpha(cycle,0) = %v, want 0.5", a)
	}
}

func TestAlphaErrors(t *testing.T) {
	ring, err := topology.UndirectedRing(6) // in-degree 2
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Alpha(ring, 1); err == nil {
		t.Error("in-degree 2 < 2f+1 should error")
	}
	if _, err := Alpha(ring, -1); err == nil {
		t.Error("negative f should error")
	}
	star, err := topology.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	_ = star
}

func TestAlphaAsync(t *testing.T) {
	k7, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	// K7, f=1: quorum vector has 6-1=5 entries, a = 1/(5+1-2) = 1/4.
	a, err := AlphaAsync(k7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.25) > 1e-15 {
		t.Errorf("AlphaAsync(K7,1) = %v, want 0.25", a)
	}
	k4, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AlphaAsync(k4, 1); err == nil {
		t.Error("in-degree 3 < 3f+1 = 4 should error")
	}
	if _, err := AlphaAsync(k7, -1); err == nil {
		t.Error("negative f should error")
	}
}

func TestContractionBound(t *testing.T) {
	if got := ContractionBound(1, 1); got != 0.5 {
		t.Errorf("ContractionBound(1,1) = %v, want 0.5", got)
	}
	if got := ContractionBound(0.5, 2); math.Abs(got-(1-0.25/2)) > 1e-15 {
		t.Errorf("ContractionBound(0.5,2) = %v, want 0.875", got)
	}
	// Longer propagation ⇒ weaker contraction.
	if ContractionBound(0.5, 3) <= ContractionBound(0.5, 2) {
		t.Error("bound should increase with l")
	}
}

func TestWorstCaseSteps(t *testing.T) {
	if got := WorstCaseSteps(7, 2); got != 4 {
		t.Errorf("WorstCaseSteps(7,2) = %d, want 4", got)
	}
}

func TestRoundsToEpsilonBound(t *testing.T) {
	rounds, err := RoundsToEpsilonBound(7, 2, 1.0/3.0, 10, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 {
		t.Fatalf("rounds = %d, want positive", rounds)
	}
	// Tighter epsilon cannot need fewer rounds.
	tighter, err := RoundsToEpsilonBound(7, 2, 1.0/3.0, 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if tighter < rounds {
		t.Errorf("tighter eps needs %d < %d rounds", tighter, rounds)
	}
	// Already converged.
	zero, err := RoundsToEpsilonBound(7, 2, 1.0/3.0, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Errorf("already-converged bound = %d, want 0", zero)
	}
	if _, err := RoundsToEpsilonBound(7, 2, 1.0/3.0, 10, 0); err == nil {
		t.Error("eps = 0 should error")
	}
	if _, err := RoundsToEpsilonBound(7, 2, 1.0/3.0, -1, 1); err == nil {
		t.Error("negative range should error")
	}
	if _, err := RoundsToEpsilonBound(2, 1, 0.5, 10, 1); err == nil {
		t.Error("degenerate l should error")
	}
}

// TestLemma5BoundHoldsEmpirically is the heart of E7: the measured worst
// l-round contraction on a core network under the hug adversary must not
// exceed the Lemma 5 bound (1 − αˡ/2) with l = n−f−1.
func TestLemma5BoundHoldsEmpirically(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		g, err := topology.CoreNetwork(tc.n, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		faulty := nodeset.New(tc.n)
		for i := 0; i < tc.f; i++ {
			faulty.Add(i)
		}
		initial := make([]float64, tc.n)
		for i := range initial {
			initial[i] = float64(i % 2) // adversarially split inputs
		}
		tr, err := sim.Sequential{}.Run(sim.Config{
			G: g, F: tc.f, Faulty: faulty, Initial: initial,
			Rule:      core.TrimmedMean{},
			Adversary: adversary.Hug{High: true},
			MaxRounds: 400, Epsilon: 1e-10,
		})
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := Alpha(g, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		l := WorstCaseSteps(tc.n, tc.f)
		bound := ContractionBound(alpha, l)
		measured := MeasureContraction(tr, l, 1e-9)
		if math.IsNaN(measured) {
			t.Fatalf("n=%d f=%d: no qualifying window", tc.n, tc.f)
		}
		if measured > bound+1e-9 {
			t.Errorf("n=%d f=%d: measured %v exceeds Lemma 5 bound %v", tc.n, tc.f, measured, bound)
		}
	}
}

func TestMeasureContractionEdgeCases(t *testing.T) {
	tr := &sim.Trace{Rounds: 1, U: []float64{1, 1}, Mu: []float64{0, 0.5}}
	got := MeasureContraction(tr, 1, 0)
	if math.Abs(got-0.5) > 1e-15 {
		t.Errorf("contraction = %v, want 0.5", got)
	}
	if !math.IsNaN(MeasureContraction(tr, 5, 0)) {
		t.Error("window longer than trace should give NaN")
	}
	flat := &sim.Trace{Rounds: 2, U: []float64{1, 1, 1}, Mu: []float64{1, 1, 1}}
	if !math.IsNaN(MeasureContraction(flat, 1, 1e-9)) {
		t.Error("all-below-floor trace should give NaN")
	}
}

func TestEmpiricalRate(t *testing.T) {
	tr := &sim.Trace{Rounds: 2, U: []float64{4, 2, 1}, Mu: []float64{0, 0, 0}}
	if got := EmpiricalRate(tr); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("rate = %v, want 0.5", got)
	}
	if !math.IsNaN(EmpiricalRate(&sim.Trace{Rounds: 0, U: []float64{1}, Mu: []float64{0}})) {
		t.Error("zero-round trace should give NaN")
	}
	exact := &sim.Trace{Rounds: 1, U: []float64{1, 0}, Mu: []float64{0, 0}}
	if got := EmpiricalRate(exact); got != 0 {
		t.Errorf("instant convergence rate = %v, want 0", got)
	}
}

func TestSplitAtMidpoint(t *testing.T) {
	states := []float64{0, 1, 9, 10}
	ff := nodeset.Universe(4)
	a, b := SplitAtMidpoint(states, ff)
	if !a.Equal(nodeset.FromMembers(4, 0, 1)) {
		t.Errorf("A = %v, want {0,1}", a)
	}
	if !b.Equal(nodeset.FromMembers(4, 2, 3)) {
		t.Errorf("B = %v, want {2,3}", b)
	}
	// Faulty nodes excluded from the split.
	ff2 := nodeset.FromMembers(4, 0, 3)
	a2, b2 := SplitAtMidpoint(states, ff2)
	if a2.Count()+b2.Count() != 2 {
		t.Errorf("split covers %d nodes, want 2", a2.Count()+b2.Count())
	}
}

// TestEmpiricalRateMatchesSLEMForF0 ties the Markov view to the dynamics:
// on a strongly connected graph with f=0, the fitted geometric rate should
// approach the SLEM of the iteration's transition matrix.
func TestEmpiricalRateMatchesSLEMForF0(t *testing.T) {
	g, err := topology.UndirectedRing(8)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, 8)
	for i := range initial {
		initial[i] = rand.New(rand.NewSource(int64(i + 1))).Float64()
	}
	tr, err := sim.Sequential{}.Run(sim.Config{
		G: g, F: 0, Initial: initial, Rule: core.TrimmedMean{},
		MaxRounds: 60, Epsilon: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := EmpiricalRate(tr)
	// The undirected ring's transition matrix has eigenvalues
	// (1+2cos(2πk/n))/3, so its SLEM is (1+2cos(2π/n))/3 ≈ 0.8047 for n = 8.
	slem := (1 + 2*math.Cos(2*math.Pi/8)) / 3
	if math.Abs(rate-slem) > 0.05 {
		t.Errorf("empirical rate %v vs SLEM %v", rate, slem)
	}
}
