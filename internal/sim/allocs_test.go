package sim

import (
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/delayed"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// TestEngineRoundLoopZeroSteadyStateAllocs is the allocation regression gate
// behind invariant 3 of doc.go: with an EdgeWriter adversary the engines'
// round loops allocate nothing in steady state. Measured differentially —
// a run with 4× the rounds must allocate exactly as much as the short run
// (setup only); any per-round allocation shows up multiplied by 300.
func TestEngineRoundLoopZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates nondeterministically")
	}
	g, err := topology.CoreNetwork(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, 16)
	for i := range initial {
		initial[i] = float64(i)
	}
	faulty := nodeset.FromMembers(16, 0, 1)

	adversaries := []struct {
		name string
		mk   func() adversary.Strategy
	}{
		{"hug-high", func() adversary.Strategy { return adversary.Hug{High: true} }},
		{"extremes", func() adversary.Strategy { return adversary.Extremes{Amplitude: 30} }},
		{"fixed", func() adversary.Strategy { return adversary.Fixed{Value: 1e4} }},
		{"insider-high", func() adversary.Strategy { return &adversary.Insider{High: true} }},
		{"silent", func() adversary.Strategy { return adversary.Silent{} }},
	}
	// The bounded-staleness history ring is held to the same gate.
	variants := []struct {
		name  string
		eng   Engine
		stale delayed.StalePolicy
	}{{"sequential", Sequential{}, nil}, {"matrix", Matrix{}, nil}, {"sequential-stale", Sequential{}, delayed.MaxStale{B: 4}}}
	for _, v := range variants {
		for _, adv := range adversaries {
			t.Run(v.name+"/"+adv.name, func(t *testing.T) {
				measure := func(rounds int) float64 {
					strat := adv.mk()
					return testing.AllocsPerRun(5, func() {
						tr, err := v.eng.Run(Config{
							G: g, F: 2, Faulty: faulty, Initial: initial,
							Rule: core.TrimmedMean{}, Adversary: strat,
							Stale: v.stale, MaxRounds: rounds,
						})
						if err != nil {
							t.Fatal(err)
						}
						if tr.Rounds != rounds {
							t.Fatalf("rounds = %d, want %d", tr.Rounds, rounds)
						}
					})
				}
				short, long := measure(100), measure(400)
				if long > short {
					t.Errorf("round loop allocates in steady state: %.1f allocs at 100 rounds vs %.1f at 400 (≈%.3f/round)",
						short, long, (long-short)/300)
				}
			})
		}
	}
}

// TestScenarioBatchSharesSetup pins the amortization contract of Sweep:
// running K scenarios through one single-worker sweep must allocate less
// than K independent Sequential runs (the plane geometry and receive
// buffers are built once).
func TestScenarioBatchSharesSetup(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates nondeterministically")
	}
	g, err := topology.CoreNetwork(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, 16)
	for i := range initial {
		initial[i] = float64(i)
	}
	base := Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(16, 0, 1), Initial: initial,
		Rule: core.TrimmedMean{}, Adversary: adversary.Hug{High: true},
		MaxRounds: 50,
	}
	scens := []Scenario{
		{Adversary: adversary.Hug{High: true}},
		{Adversary: adversary.Hug{}},
		{Adversary: adversary.Extremes{Amplitude: 10}},
		{Adversary: adversary.Fixed{Value: -50}},
	}
	batched := testing.AllocsPerRun(5, func() {
		if _, err := runScenarios(base, scens); err != nil {
			t.Fatal(err)
		}
	})
	separate := testing.AllocsPerRun(5, func() {
		for _, sc := range scens {
			cfg := sc.apply(base)
			if _, err := (Sequential{}).Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	if batched >= separate {
		t.Errorf("Sweep allocates %.0f vs %.0f for separate runs; setup is not amortized", batched, separate)
	}
}
