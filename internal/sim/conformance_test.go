package sim

// The cross-engine differential suite: one scenario table driven through
// Sequential, Matrix, and (for synchronous-delivery configurations) the
// async engine, with every built-in adversary and rule
// exercised both as built (WriteMessages / UpdateInto called directly) and
// with the fast method hidden (served through adversary.Writer /
// core.Buffered). Both synchronous engines must agree bit for bit — this is
// the harness that keeps the implementations honest as each gets optimized
// separately, and that pins the two adapters to identical semantics.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/async"
	"iabc/internal/core"
	"iabc/internal/delayed"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// mapOnly embeds a Strategy as an interface field, hiding any WriteMessages
// method from type assertions: adversary.Writer sees a plain Strategy and
// serves it through the Messages map.
type mapOnly struct {
	adversary.Strategy
}

// updateOnly does the same for a rule's UpdateInto: core.Buffered sees a
// plain UpdateRule and serves it through the reference Update.
type updateOnly struct {
	core.UpdateRule
}

// confScenario is one row of the conformance table. makeAdv returns a fresh
// strategy per engine run so randomized strategies replay identical streams;
// nil means fault-free.
type confScenario struct {
	name    string
	build   func() (*graph.Graph, error)
	f       int
	faulty  []int
	rule    core.UpdateRule
	makeAdv func() adversary.Strategy
	rounds  int
	epsilon float64
}

// conformanceScenarios is the shared table: every built-in strategy, several
// graph families, and each supported rule.
func conformanceScenarios() []confScenario {
	core72 := func() (*graph.Graph, error) { return topology.CoreNetwork(7, 2) }
	core103 := func() (*graph.Graph, error) { return topology.CoreNetwork(10, 3) }
	k6 := func() (*graph.Graph, error) { return topology.Complete(6) }
	chord72 := func() (*graph.Graph, error) { return topology.Chord(7, 2) }

	scenarios := []confScenario{
		{name: "fault-free/trimmed-mean", build: core72, f: 2, rule: core.TrimmedMean{},
			makeAdv: nil, rounds: 40},
		{name: "fault-free/mean", build: k6, f: 0, rule: core.Mean{},
			makeAdv: nil, rounds: 40},
		{name: "midpoint/extremes", build: core72, f: 2, faulty: []int{2, 5}, rule: core.TrimmedMidpoint{},
			makeAdv: func() adversary.Strategy { return adversary.Extremes{Amplitude: 9} }, rounds: 40},
	}
	// Every built-in strategy on the hardest shared topology.
	builtins := []struct {
		name string
		mk   func() adversary.Strategy
	}{
		{"conforming", func() adversary.Strategy { return adversary.Conforming{} }},
		{"fixed", func() adversary.Strategy { return adversary.Fixed{Value: 1e5} }},
		{"silent", func() adversary.Strategy { return adversary.Silent{} }},
		{"noise", func() adversary.Strategy {
			return &adversary.RandomNoise{Rng: rand.New(rand.NewSource(1888)), Lo: -7, Hi: 12}
		}},
		{"extremes", func() adversary.Strategy { return adversary.Extremes{Amplitude: 25} }},
		{"partition-attack", func() adversary.Strategy {
			return adversary.PartitionAttack{
				L: nodeset.FromMembers(7, 0, 2), R: nodeset.FromMembers(7, 1, 3, 4),
				Low: 0, High: 6, Eps: 0.5,
			}
		}},
		{"hug-high", func() adversary.Strategy { return adversary.Hug{High: true} }},
		{"hug-low", func() adversary.Strategy { return adversary.Hug{} }},
		{"insider-high", func() adversary.Strategy { return &adversary.Insider{High: true} }},
		{"insider-low", func() adversary.Strategy { return &adversary.Insider{} }},
	}
	for _, b := range builtins {
		scenarios = append(scenarios, confScenario{
			name: "core7f2/" + b.name, build: core72, f: 2, faulty: []int{2, 5},
			rule: core.TrimmedMean{}, makeAdv: b.mk, rounds: 50, epsilon: 1e-9,
		})
	}
	// The Theorem 1 attack on its violating graph (frozen, never converges)
	// and a bigger core network with the sharpest insider.
	scenarios = append(scenarios,
		confScenario{
			name: "chord7f2/partition-freeze", build: chord72, f: 2, faulty: []int{5, 6},
			rule: core.TrimmedMean{},
			makeAdv: func() adversary.Strategy {
				return adversary.PartitionAttack{
					L: nodeset.FromMembers(7, 0, 2), R: nodeset.FromMembers(7, 1, 3, 4),
					Low: 0, High: 6, Eps: 0.5,
				}
			}, rounds: 60,
		},
		confScenario{
			name: "core10f3/insider-high", build: core103, f: 3, faulty: []int{0, 1, 2},
			rule:    core.TrimmedMean{},
			makeAdv: func() adversary.Strategy { return &adversary.Insider{High: true} },
			rounds:  60, epsilon: 1e-9,
		},
		confScenario{
			name: "core10f3/noise", build: core103, f: 3, faulty: []int{0, 4, 9},
			rule: core.TrimmedMean{},
			makeAdv: func() adversary.Strategy {
				return &adversary.RandomNoise{Rng: rand.New(rand.NewSource(7)), Lo: -40, Hi: 40}
			}, rounds: 60, epsilon: 1e-9,
		},
	)
	return scenarios
}

// buildConfig materializes the scenario for one engine run. adapted selects
// the seam path: true hides WriteMessages and UpdateInto so the run goes
// through both adapters, false passes the strategy and rule as built.
func (sc *confScenario) buildConfig(t testing.TB, adapted bool) Config {
	t.Helper()
	g, err := sc.build()
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i) * 0.75
	}
	faulty := nodeset.New(n)
	for _, id := range sc.faulty {
		faulty.Add(id)
	}
	var adv adversary.Strategy
	if sc.makeAdv != nil {
		adv = sc.makeAdv()
		if adapted {
			adv = mapOnly{adv}
		}
	}
	rule := sc.rule
	if adapted {
		rule = updateOnly{rule}
	}
	return Config{
		G: g, F: sc.f, Faulty: faulty, Initial: initial,
		Rule: rule, Adversary: adv,
		MaxRounds: sc.rounds, Epsilon: sc.epsilon, RecordStates: true,
	}
}

// assertTracesEqual compares two traces bit for bit.
func assertTracesEqual(t *testing.T, label string, want, got *Trace) {
	t.Helper()
	if want.Rounds != got.Rounds || want.Converged != got.Converged {
		t.Fatalf("%s: rounds/converged = %d/%v, want %d/%v",
			label, got.Rounds, got.Converged, want.Rounds, want.Converged)
	}
	for r := 0; r <= want.Rounds; r++ {
		if math.Float64bits(want.U[r]) != math.Float64bits(got.U[r]) ||
			math.Float64bits(want.Mu[r]) != math.Float64bits(got.Mu[r]) {
			t.Fatalf("%s: U/µ mismatch at round %d: (%v,%v) vs (%v,%v)",
				label, r, got.U[r], got.Mu[r], want.U[r], want.Mu[r])
		}
		for i := range want.States[r] {
			if math.Float64bits(want.States[r][i]) != math.Float64bits(got.States[r][i]) {
				t.Fatalf("%s: state mismatch at round %d node %d: %v vs %v",
					label, r, i, got.States[r][i], want.States[r][i])
			}
		}
	}
	for i := range want.Final {
		if math.Float64bits(want.Final[i]) != math.Float64bits(got.Final[i]) {
			t.Fatalf("%s: final mismatch at node %d: %v vs %v", label, i, got.Final[i], want.Final[i])
		}
	}
}

// TestCrossEngineConformance drives every scenario through both synchronous
// engines and both seam paths, asserting bit-identical traces
// against the Sequential adapted-path reference (Messages map + reference
// Update). Matrix reads the concrete rule type and never calls the rule, so
// its adapted runs hide only the adversary's WriteMessages.
func TestCrossEngineConformance(t *testing.T) {
	for _, sc := range conformanceScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ref, err := Sequential{}.Run(sc.buildConfig(t, true))
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			_, affine := sc.rule.(core.TrimmedMean)
			if _, isMean := sc.rule.(core.Mean); isMean {
				affine = true
			}
			type variant struct {
				label   string
				engine  Engine
				adapted bool
			}
			variants := []variant{
				{"sequential/writer", Sequential{}, false},
			}
			if affine {
				variants = append(variants,
					variant{"matrix/map", Matrix{}, true},
					variant{"matrix/writer", Matrix{}, false},
				)
			}
			for _, v := range variants {
				cfg := sc.buildConfig(t, v.adapted)
				if v.engine == (Matrix{}) {
					cfg.Rule = sc.rule // Matrix switches on the concrete rule type
				}
				tr, err := v.engine.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", v.label, err)
				}
				assertTracesEqual(t, v.label, ref, tr)
			}
			// The bounded-staleness ring at B = 1 is the synchronous model:
			// the plane filled from history must match the direct fill.
			stale := sc.buildConfig(t, false)
			stale.Stale = delayed.MaxStale{B: 1}
			tr, err := Sequential{}.Run(stale)
			if err != nil {
				t.Fatalf("sequential/stale-B1: %v", err)
			}
			assertTracesEqual(t, "sequential/stale-B1", ref, tr)
			// The scenario-batched sequential loop must also agree: run the
			// same config twice through a single-worker Sweep (second run
			// reuses the plane, catching stale-state bugs in the shared
			// setup).
			base := sc.buildConfig(t, false)
			traces, err := runScenarios(base, []Scenario{{Name: "a"}, {Name: "b"}})
			if err != nil {
				t.Fatalf("Sweep: %v", err)
			}
			// Randomized strategies consume their stream across scenario
			// runs, so only replay-safe (deterministic per-round) strategies
			// can be compared on both slots; slot 0 always matches.
			if sc.makeAdv == nil || !consumesRng(sc.makeAdv()) {
				assertTracesEqual(t, "scenarios[0]", ref, traces[0])
				assertTracesEqual(t, "scenarios[1]", ref, traces[1])

				// The matrix engine's pooled runner behind Sweep must agree
				// too: the second slot reuses the matrix scratch, catching
				// stale-state bugs.
				if affine {
					res, err := Sweep(context.Background(), base,
						[]Scenario{{Name: "a"}, {Name: "b"}},
						SweepOptions{Engine: Matrix{}, Workers: 1})
					if err != nil {
						t.Fatalf("Sweep/matrix: %v", err)
					}
					assertTracesEqual(t, "sweep/matrix[0]", ref, res.Traces[0])
					assertTracesEqual(t, "sweep/matrix[1]", ref, res.Traces[1])
				}
			}
		})
	}
}

// consumesRng reports whether the strategy advances internal randomness
// between rounds (making back-to-back runs diverge by design).
func consumesRng(s adversary.Strategy) bool {
	_, ok := s.(*adversary.RandomNoise)
	return ok
}

// TestAsyncSynchronousDeliveryConformance pins the asynchronous engine to
// the synchronous semantics in the one regime where they must coincide:
// f = 0 (the round quorum is the full in-neighborhood), constant delays
// (async.Fixed), and a faulty tick equal to the delay so adversarial batches
// land exactly on round boundaries. With a single faulty sender the event
// order makes every emission see the same omniscient view as the
// synchronous round, so fault-free states must match Sequential bit for bit
// — as built ("writer") and with both fast methods hidden ("map"), the
// Sequential reference always running as built.
func TestAsyncSynchronousDeliveryConformance(t *testing.T) {
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	const rounds = 25
	// Conforming and Silent are excluded: Conforming transmits the sender's
	// ghost state, which evolves in the synchronous engines but is frozen at
	// the initial value in async (it does not model faulty internal state),
	// and Silent starves the full-in-degree quorum outright.
	strategies := []struct {
		name string
		mk   func() adversary.Strategy
	}{
		{"fixed", func() adversary.Strategy { return adversary.Fixed{Value: 42} }},
		{"noise", func() adversary.Strategy {
			return &adversary.RandomNoise{Rng: rand.New(rand.NewSource(55)), Lo: -3, Hi: 3}
		}},
		{"extremes", func() adversary.Strategy { return adversary.Extremes{Amplitude: 2} }},
		{"partition-attack", func() adversary.Strategy {
			return adversary.PartitionAttack{
				L: nodeset.FromMembers(n, 0), R: nodeset.FromMembers(n, 1, 2),
				Low: 0, High: 3, Eps: 0.25,
			}
		}},
		{"hug-high", func() adversary.Strategy { return adversary.Hug{High: true} }},
		{"hug-low", func() adversary.Strategy { return adversary.Hug{} }},
		{"insider-high", func() adversary.Strategy { return &adversary.Insider{High: true} }},
		{"insider-low", func() adversary.Strategy { return &adversary.Insider{} }},
	}
	for _, st := range strategies {
		st := st
		for _, path := range []string{"map", "writer"} {
			path := path
			t.Run(st.name+"/"+path, func(t *testing.T) {
				initial := []float64{0, 1, 2, 3, 9}
				faulty := nodeset.FromMembers(n, 4)
				var rule core.UpdateRule = core.TrimmedMean{}
				adv := st.mk()
				if path == "map" {
					rule, adv = updateOnly{rule}, mapOnly{adv}
				}
				ref, err := Sequential{}.Run(Config{
					G: g, F: 0, Faulty: faulty, Initial: initial,
					Rule: core.TrimmedMean{}, Adversary: st.mk(),
					MaxRounds: rounds,
				})
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				atr, err := async.Run(context.Background(), async.Config{
					G: g, F: 0, Faulty: faulty, Initial: initial,
					Rule: rule, Adversary: adv,
					Delays:    async.Fixed{D: 1},
					MaxRounds: rounds,
				})
				if err != nil {
					t.Fatalf("async: %v", err)
				}
				if atr.Stalled {
					t.Fatal("async run stalled under synchronous delivery")
				}
				for i := 0; i < n; i++ {
					if faulty.Contains(i) {
						continue // async leaves faulty finals at their initial value
					}
					if atr.Rounds[i] != rounds {
						t.Fatalf("node %d stopped at round %d, want %d", i, atr.Rounds[i], rounds)
					}
					if math.Float64bits(ref.Final[i]) != math.Float64bits(atr.Final[i]) {
						t.Fatalf("node %d: async final %v != sequential final %v",
							i, atr.Final[i], ref.Final[i])
					}
				}
			})
		}
	}
}
