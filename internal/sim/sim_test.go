package sim

import (
	"math"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

func initialRamp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	good := Config{
		G: g, F: 1, Initial: initialRamp(4), Rule: core.TrimmedMean{}, MaxRounds: 10,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"nil graph", func(c *Config) { c.G = nil }},
		{"wrong initial length", func(c *Config) { c.Initial = []float64{1} }},
		{"nil rule", func(c *Config) { c.Rule = nil }},
		{"negative F", func(c *Config) { c.F = -1 }},
		{"zero rounds", func(c *Config) { c.MaxRounds = 0 }},
		{"faulty capacity mismatch", func(c *Config) { c.Faulty = nodeset.FromMembers(9, 1) }},
		{"faulty without adversary", func(c *Config) { c.Faulty = nodeset.FromMembers(4, 1) }},
		{"all faulty", func(c *Config) {
			c.Faulty = nodeset.Universe(4)
			c.Adversary = adversary.Fixed{Value: 0}
		}},
		{"in-degree too small", func(c *Config) { c.F = 2 }}, // K4 in-degree 3 < 5
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func engines() []Engine {
	return []Engine{Sequential{}, Matrix{}}
}

func TestF0ConvergenceOnStronglyConnected(t *testing.T) {
	// With f = 0 and no faults, the mean iteration converges on any
	// strongly connected graph.
	graphs := map[string]func() (*graph.Graph, error){
		"cycle":     func() (*graph.Graph, error) { return topology.DirectedCycle(6) },
		"ring":      func() (*graph.Graph, error) { return topology.UndirectedRing(7) },
		"hypercube": func() (*graph.Graph, error) { return topology.Hypercube(3) },
	}
	for name, build := range graphs {
		for _, eng := range engines() {
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := eng.Run(Config{
				G: g, F: 0, Initial: initialRamp(g.N()),
				Rule: core.TrimmedMean{}, MaxRounds: 5000, Epsilon: 1e-9,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, eng.Name(), err)
			}
			if !tr.Converged {
				t.Errorf("%s/%s: no convergence, final range %v", name, eng.Name(), tr.FinalRange())
			}
			if r, bad := tr.ValidityViolation(1e-9); bad {
				t.Errorf("%s/%s: validity violated at round %d", name, eng.Name(), r)
			}
		}
	}
}

func TestTheorem2ValidityUnderAllAdversaries(t *testing.T) {
	// On a Theorem 1-satisfying graph, Algorithm 1 keeps U non-increasing
	// and µ non-decreasing under every adversary in the suite.
	g, err := topology.CoreNetwork(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	faulty := nodeset.FromMembers(7, 2, 5)
	strategies := []adversary.Strategy{
		adversary.Conforming{},
		adversary.Fixed{Value: 1e6},
		adversary.Fixed{Value: -1e6},
		adversary.Silent{},
		&adversary.RandomNoise{Rng: rand.New(rand.NewSource(1)), Lo: -1e3, Hi: 1e3},
		adversary.Extremes{Amplitude: 50},
		adversary.Hug{High: true},
		adversary.Hug{},
		adversary.Insider{High: true},
		adversary.Insider{},
		adversary.PartitionAttack{
			L:   nodeset.FromMembers(7, 3),
			R:   nodeset.FromMembers(7, 4, 6),
			Low: 0, High: 6, Eps: 10,
		},
	}
	for _, strat := range strategies {
		for _, eng := range engines() {
			tr, err := eng.Run(Config{
				G: g, F: 2, Faulty: faulty, Initial: initialRamp(7),
				Rule: core.TrimmedMean{}, Adversary: strat, MaxRounds: 300, Epsilon: 1e-7,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", strat.Name(), eng.Name(), err)
			}
			if r, bad := tr.ValidityViolation(1e-9); bad {
				t.Errorf("%s/%s: validity violated at round %d (U: %v->%v, µ: %v->%v)",
					strat.Name(), eng.Name(), r, tr.U[r-1], tr.U[r], tr.Mu[r-1], tr.Mu[r])
			}
			// Validity also means staying within the initial hull.
			if tr.U[tr.Rounds] > tr.U[0]+1e-9 || tr.Mu[tr.Rounds] < tr.Mu[0]-1e-9 {
				t.Errorf("%s/%s: left initial hull", strat.Name(), eng.Name())
			}
		}
	}
}

func TestTheorem3ConvergenceOnCoreNetworks(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		g, err := topology.CoreNetwork(tc.n, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		faulty := nodeset.New(tc.n)
		for i := 0; i < tc.f; i++ {
			faulty.Add(i) // core members as faulty: hardest position
		}
		tr, err := Sequential{}.Run(Config{
			G: g, F: tc.f, Faulty: faulty, Initial: initialRamp(tc.n),
			Rule:      core.TrimmedMean{},
			Adversary: adversary.Extremes{Amplitude: 100},
			MaxRounds: 20000, Epsilon: 1e-6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Converged {
			t.Errorf("CoreNetwork(%d,%d): no convergence in %d rounds, range %v",
				tc.n, tc.f, tr.Rounds, tr.FinalRange())
		}
	}
}

func TestTheorem1AttackFreezesViolatingGraph(t *testing.T) {
	// Chord(7,2) violates Theorem 1 with F={5,6}, L={0,2}, R={1,3,4}.
	// The proof's adversary must freeze L at m and R at M forever.
	g, err := topology.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := nodeset.FromMembers(7, 0, 2)
	r := nodeset.FromMembers(7, 1, 3, 4)
	faulty := nodeset.FromMembers(7, 5, 6)
	const m, M = 0.0, 1.0
	initial := make([]float64, 7)
	l.ForEach(func(i int) bool { initial[i] = m; return true })
	r.ForEach(func(i int) bool { initial[i] = M; return true })

	for _, eng := range engines() {
		tr, err := eng.Run(Config{
			G: g, F: 2, Faulty: faulty, Initial: initial,
			Rule: core.TrimmedMean{},
			Adversary: adversary.PartitionAttack{
				L: l, R: r, Low: m, High: M, Eps: 0.5,
			},
			MaxRounds: 500, Epsilon: 1e-12, RecordStates: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if tr.Converged {
			t.Fatalf("%s: converged on a violating graph under the Theorem 1 attack", eng.Name())
		}
		final := tr.Final
		l.ForEach(func(i int) bool {
			if math.Abs(final[i]-m) > 1e-12 {
				t.Errorf("%s: L node %d drifted to %v, want frozen at %v", eng.Name(), i, final[i], m)
			}
			return true
		})
		r.ForEach(func(i int) bool {
			if math.Abs(final[i]-M) > 1e-12 {
				t.Errorf("%s: R node %d drifted to %v, want frozen at %v", eng.Name(), i, final[i], M)
			}
			return true
		})
		if got := tr.FinalRange(); math.Abs(got-(M-m)) > 1e-12 {
			t.Errorf("%s: final range %v, want %v", eng.Name(), got, M-m)
		}
	}
}

func TestMeanRuleViolatesValidityUnderAttack(t *testing.T) {
	// The ablation behind E9: without trimming, a single liar drags the
	// fault-free nodes outside the initial hull.
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sequential{}.Run(Config{
		G: g, F: 0, // Mean ignores f; F=0 passes validation on K5
		Faulty:    nodeset.FromMembers(5, 4),
		Initial:   []float64{0, 0.25, 0.5, 1, 0.5},
		Rule:      core.Mean{},
		Adversary: adversary.Fixed{Value: 100},
		MaxRounds: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := tr.ValidityViolation(1e-9); !bad {
		t.Fatal("mean rule should violate validity under a fixed extreme liar")
	}
	if tr.U[tr.Rounds] <= 1 {
		t.Fatalf("fault-free max %v should exceed initial hull max 1", tr.U[tr.Rounds])
	}
}

func TestTrimmedMeanResistsSameAttack(t *testing.T) {
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sequential{}.Run(Config{
		G: g, F: 1,
		Faulty:    nodeset.FromMembers(5, 4),
		Initial:   []float64{0, 0.25, 0.5, 1, 0.5},
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Fixed{Value: 100},
		MaxRounds: 200, Epsilon: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := tr.ValidityViolation(1e-9); bad {
		t.Fatal("trimmed mean should maintain validity")
	}
	if !tr.Converged {
		t.Fatalf("trimmed mean should converge; range %v", tr.FinalRange())
	}
}

func TestEnginesProduceIdenticalTraces(t *testing.T) {
	// Property: Sequential and Matrix agree bit-for-bit across random
	// configurations. Randomized adversaries need identical seeds, so each
	// engine gets a freshly seeded strategy.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(6)
		f := rng.Intn(2)
		if n < 3*f+1 {
			f = 0
		}
		g, err := topology.RandomDigraph(n, 0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinInDegree() < 2*f+1 {
			continue
		}
		initial := make([]float64, n)
		for i := range initial {
			initial[i] = rng.Float64() * 10
		}
		faulty := nodeset.New(n)
		if f > 0 {
			faulty.Add(rng.Intn(n))
		}
		seed := rng.Int63()
		makeCfg := func(strategySeed int64) Config {
			return Config{
				G: g, F: f, Faulty: faulty, Initial: initial,
				Rule:      core.TrimmedMean{},
				Adversary: &adversary.RandomNoise{Rng: rand.New(rand.NewSource(strategySeed)), Lo: -5, Hi: 15},
				MaxRounds: 60, Epsilon: 1e-10, RecordStates: true,
			}
		}
		trSeq, err := Sequential{}.Run(makeCfg(seed))
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		trMat, err := Matrix{}.Run(makeCfg(seed))
		if err != nil {
			t.Fatalf("matrix: %v", err)
		}
		if trSeq.Rounds != trMat.Rounds || trSeq.Converged != trMat.Converged {
			t.Fatalf("trial %d: rounds/converged mismatch: %d/%v vs %d/%v",
				trial, trSeq.Rounds, trSeq.Converged, trMat.Rounds, trMat.Converged)
		}
		for r := 0; r <= trSeq.Rounds; r++ {
			if trSeq.U[r] != trMat.U[r] || trSeq.Mu[r] != trMat.Mu[r] {
				t.Fatalf("trial %d round %d: U/µ mismatch", trial, r)
			}
			for i := 0; i < n; i++ {
				if trSeq.States[r][i] != trMat.States[r][i] {
					t.Fatalf("trial %d round %d node %d: state %v vs %v",
						trial, r, i, trSeq.States[r][i], trMat.States[r][i])
				}
			}
		}
	}
}

func TestSilentFaultsAreSubstituted(t *testing.T) {
	// A silent faulty node behaves like one repeating its ghost state:
	// the run must proceed and converge.
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sequential{}.Run(Config{
		G: g, F: 1, Faulty: nodeset.FromMembers(4, 3),
		Initial: initialRamp(4), Rule: core.TrimmedMean{},
		Adversary: adversary.Silent{}, MaxRounds: 300, Epsilon: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged {
		t.Fatalf("silent fault should not prevent convergence; range %v", tr.FinalRange())
	}
}

func TestTraceAccessors(t *testing.T) {
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sequential{}.Run(Config{
		G: g, F: 0, Initial: []float64{0, 1, 2, 3},
		Rule: core.TrimmedMean{}, MaxRounds: 3, RecordStates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Range(0); got != 3 {
		t.Errorf("Range(0) = %v, want 3", got)
	}
	if len(tr.U) != tr.Rounds+1 || len(tr.Mu) != tr.Rounds+1 {
		t.Errorf("U/Mu lengths %d/%d, want %d", len(tr.U), len(tr.Mu), tr.Rounds+1)
	}
	if len(tr.States) != tr.Rounds+1 {
		t.Errorf("States length %d, want %d", len(tr.States), tr.Rounds+1)
	}
	if tr.RuleName != "trimmed-mean" || tr.AdversaryName != "none" {
		t.Errorf("names = %q/%q", tr.RuleName, tr.AdversaryName)
	}
	if tr.FaultFree.Count() != 4 {
		t.Errorf("FaultFree = %v", tr.FaultFree)
	}
	// K4 with mean weights converges in one round to 1.5 exactly? Not
	// necessarily exactly — but all states must be equal by symmetry.
	if tr.FinalRange() > 1e-12 {
		t.Errorf("K4 f=0 should converge immediately, range %v", tr.FinalRange())
	}
}

func TestEpsilonZeroRunsAllRounds(t *testing.T) {
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Sequential{}.Run(Config{
		G: g, F: 0, Initial: initialRamp(4), Rule: core.TrimmedMean{}, MaxRounds: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rounds != 7 || tr.Converged {
		t.Fatalf("rounds=%d converged=%v, want 7/false", tr.Rounds, tr.Converged)
	}
}

func TestGhostUpdateErrorDoesNotAbortRun(t *testing.T) {
	// Node 3 is faulty with in-degree 1 < 2f+1: its ghost update errors,
	// but the run must succeed because fault-free nodes are unaffected.
	b := graph.NewBuilder(5)
	// K4 among 0..3... wait, give 0..3 a clique and node 4 faulty with a
	// single in-edge but edges out to everyone.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				b.AddEdge(i, j)
			}
		}
	}
	b.AddEdge(0, 4)
	for j := 0; j < 4; j++ {
		b.AddEdge(4, j)
	}
	g := b.MustBuild()
	for _, eng := range engines() {
		tr, err := eng.Run(Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(5, 4),
			Initial: initialRamp(5), Rule: core.TrimmedMean{},
			Adversary: adversary.Fixed{Value: -3}, MaxRounds: 100, Epsilon: 1e-8,
		})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !tr.Converged {
			t.Errorf("%s: fault-free clique should converge", eng.Name())
		}
	}
}

func TestConditionSatisfiedImpliesConvergenceRandomized(t *testing.T) {
	// The sufficiency direction of the paper, sampled: random digraphs that
	// pass the exact Theorem 1 check converge under an adversary; those
	// that fail it are not exercised here (E1 covers the necessity side).
	rng := rand.New(rand.NewSource(99))
	tested := 0
	for trial := 0; trial < 60 && tested < 12; trial++ {
		n := 4 + rng.Intn(4)
		f := 1
		g, err := topology.RandomDigraph(n, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := condition.Check(g, f)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied {
			continue
		}
		tested++
		faulty := nodeset.FromMembers(n, rng.Intn(n))
		initial := make([]float64, n)
		for i := range initial {
			initial[i] = rng.Float64()
		}
		tr, err := Sequential{}.Run(Config{
			G: g, F: f, Faulty: faulty, Initial: initial,
			Rule:      core.TrimmedMean{},
			Adversary: adversary.Extremes{Amplitude: 10},
			MaxRounds: 30000, Epsilon: 1e-7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Converged {
			t.Errorf("graph satisfying Theorem 1 failed to converge (n=%d):\n%s",
				n, g.EdgeListString())
		}
	}
	if tested < 5 {
		t.Fatalf("only %d satisfying graphs sampled; broaden the generator", tested)
	}
}
