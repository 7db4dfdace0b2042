package delayed_test

import (
	"fmt"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/delayed"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/topology"
	"iabc/internal/workload"
)

// uniformStale draws d uniformly from [0, B−1] per edge per round.
type uniformStale struct {
	b   int
	rng *rand.Rand
}

func (u *uniformStale) Bound() int                  { return u.b }
func (u *uniformStale) Staleness(int, int, int) int { return u.rng.Intn(u.b) }
func (u *uniformStale) Name() string                { return fmt.Sprintf("uniform-stale(B=%d)", u.b) }

// freshStale keeps a ring of depth b but always serves the freshest value:
// the synchronous model read through slot (t−1) mod b.
type freshStale struct{ b int }

func (f freshStale) Bound() int                { return f.b }
func (freshStale) Staleness(int, int, int) int { return 0 }
func (f freshStale) Name() string              { return fmt.Sprintf("fresh(B=%d)", f.b) }

func run(t *testing.T, cfg sim.Config) *sim.Trace {
	t.Helper()
	tr, err := sim.Sequential{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	g, err := topology.CoreNetwork(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := sim.Config{
		G: g, F: 2, Initial: workload.Ramp(7), Rule: core.TrimmedMean{},
		Stale: delayed.MaxStale{B: 3}, MaxRounds: 10,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(c *sim.Config)
		ok     bool
	}{
		{"nil graph", func(c *sim.Config) { c.G = nil }, false},
		{"bad initial", func(c *sim.Config) { c.Initial = nil }, false},
		{"nil rule", func(c *sim.Config) { c.Rule = nil }, false},
		// No policy is the synchronous model, not an error.
		{"nil policy", func(c *sim.Config) { c.Stale = nil }, true},
		{"zero B", func(c *sim.Config) { c.Stale = delayed.MaxStale{} }, false},
		{"zero rounds", func(c *sim.Config) { c.MaxRounds = 0 }, false},
		{"negative F", func(c *sim.Config) { c.F = -1 }, false},
		{"faulty capacity", func(c *sim.Config) { c.Faulty = nodeset.FromMembers(3, 0) }, false},
		{"faulty no adversary", func(c *sim.Config) { c.Faulty = nodeset.FromMembers(7, 0) }, false},
		{"all faulty", func(c *sim.Config) {
			c.Faulty = nodeset.Universe(7)
			c.Adversary = adversary.Fixed{Value: 0}
		}, false},
		{"in-degree too small", func(c *sim.Config) { c.F = 3 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	// Matrix replays v[t] = M[t]·v[t−1] and has no history to read from.
	if _, err := (sim.Matrix{}).Run(good); err == nil {
		t.Fatal("matrix engine accepted a staleness policy")
	}
}

func TestFreshMatchesSynchronousEngine(t *testing.T) {
	// With B = 1, or with d = 0 under any bound, the model degenerates to
	// the synchronous engine: the ring path must reproduce the plain path's
	// trace bit for bit.
	g, err := topology.CoreNetwork(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(7, 0, 1), Initial: workload.Ramp(7),
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Extremes{Amplitude: 10},
		MaxRounds: 50, Epsilon: 1e-9,
	}
	syncTr := run(t, cfg)
	policies := []delayed.StalePolicy{
		delayed.MaxStale{B: 1},
		&uniformStale{b: 1, rng: rand.New(rand.NewSource(1))},
		freshStale{b: 4},
	}
	for _, p := range policies {
		cfg.Stale = p
		delTr := run(t, cfg)
		if delTr.Rounds != syncTr.Rounds || delTr.Converged != syncTr.Converged {
			t.Fatalf("%s: rounds/converged %d/%v vs sync %d/%v",
				p.Name(), delTr.Rounds, delTr.Converged, syncTr.Rounds, syncTr.Converged)
		}
		for r := 0; r <= syncTr.Rounds; r++ {
			if delTr.U[r] != syncTr.U[r] || delTr.Mu[r] != syncTr.Mu[r] {
				t.Fatalf("%s round %d: U/µ diverge from synchronous engine", p.Name(), r)
			}
		}
	}
}

func TestConvergesUnderMaxStaleness(t *testing.T) {
	g, err := topology.CoreNetwork(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := run(t, sim.Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(7, 0, 1),
		Initial:   workload.Bimodal(7, 0, 1),
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Hug{High: true},
		Stale:     delayed.MaxStale{B: 5},
		MaxRounds: 20000, Epsilon: 1e-7,
	})
	if !tr.Converged {
		t.Fatalf("no convergence under max staleness; range %v", tr.FinalRange())
	}
	if r, bad := tr.EnvelopeViolation(5, 1e-9); bad {
		t.Fatalf("envelope validity violated at round %d", r)
	}
}

func TestStalenessSlowsConvergence(t *testing.T) {
	// Rounds-to-ε must not decrease as the staleness bound grows (the E15
	// shape).
	g, err := topology.CoreNetwork(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, b := range []int{1, 3, 6} {
		tr := run(t, sim.Config{
			G: g, F: 2, Faulty: nodeset.FromMembers(7, 0, 1),
			Initial:   workload.Bimodal(7, 0, 1),
			Rule:      core.TrimmedMean{},
			Adversary: adversary.Extremes{Amplitude: 10},
			Stale:     delayed.MaxStale{B: b},
			MaxRounds: 50000, Epsilon: 1e-7,
		})
		if !tr.Converged {
			t.Fatalf("B=%d: no convergence", b)
		}
		if tr.Rounds < prev {
			t.Fatalf("B=%d converged in %d rounds, faster than smaller bound's %d", b, tr.Rounds, prev)
		}
		prev = tr.Rounds
	}
}

func TestUniformStaleDeterministicAndValid(t *testing.T) {
	g, err := topology.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *sim.Trace {
		return run(t, sim.Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(6, 5),
			Initial:   workload.Uniform(6, 0, 10, rand.New(rand.NewSource(7))),
			Rule:      core.TrimmedMean{},
			Adversary: adversary.Fixed{Value: 1e6},
			Stale:     &uniformStale{b: 4, rng: rand.New(rand.NewSource(seed))},
			MaxRounds: 2000, Epsilon: 1e-7,
		})
	}
	a, b := mk(9), mk(9)
	if a.Rounds != b.Rounds || a.FinalRange() != b.FinalRange() {
		t.Fatal("same seed produced different runs")
	}
	if !a.Converged {
		t.Fatal("no convergence under uniform staleness")
	}
	if r, bad := a.EnvelopeViolation(4, 1e-9); bad {
		t.Fatalf("envelope violated at %d", r)
	}
	// The liar at 1e6 must never leak into the envelope.
	for r := 0; r <= a.Rounds; r++ {
		if a.U[r] > 10+1e-9 {
			t.Fatalf("round %d: U = %v escaped the honest hull", r, a.U[r])
		}
	}
}

// loggedStale is a policy that remembers every staleness it chose.
type loggedStale struct {
	uniformStale
	chose map[[3]int]int // (round, from, to) -> d
}

func (l *loggedStale) Staleness(from, to, round int) int {
	d := l.rng.Intn(l.b + 1) // 0 through b: b exceeds the bound, and the engine clamps it
	l.chose[[3]int{round, from, to}] = d
	return d
}

// loggedRule is TrimmedMean recording every received vector, in call order.
// It does not embed TrimmedMean, whose UpdateInto the engine would call
// instead of Update.
type loggedRule struct{ calls *[][]core.ValueFrom }

func (loggedRule) Name() string                   { return "logged-trimmed-mean" }
func (loggedRule) Validate(inDegree, f int) error { return core.TrimmedMean{}.Validate(inDegree, f) }

func (r loggedRule) Update(own float64, recv []core.ValueFrom, f int) (float64, error) {
	*r.calls = append(*r.calls, append([]core.ValueFrom(nil), recv...))
	return core.TrimmedMean{}.Update(own, recv, f)
}

// TestStaleDeliveriesReadHistory is the model's definition as an oracle:
// every value a fault-free sender j delivers to i at round t is j's state
// v_j[t−1−d], with d the policy's choice clamped to [0, min(t−1, B−1)], and
// every faulty sender's value is the adversary's.
func TestStaleDeliveriesReadHistory(t *testing.T) {
	const n, b = 7, 3
	g, err := topology.CoreNetwork(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	policy := &loggedStale{uniformStale{b, rand.New(rand.NewSource(3))}, map[[3]int]int{}}
	var calls [][]core.ValueFrom
	faulty := nodeset.FromMembers(n, 1)
	tr := run(t, sim.Config{
		G: g, F: 2, Faulty: faulty, Initial: workload.Ramp(n),
		Rule:      loggedRule{calls: &calls},
		Adversary: adversary.Fixed{Value: 42},
		Stale:     policy, MaxRounds: 12, RecordStates: true,
	})
	if len(calls) != n*tr.Rounds {
		t.Fatalf("%d rule calls, want %d", len(calls), n*tr.Rounds)
	}
	for c, recv := range calls {
		round, to := c/n+1, c%n
		for _, m := range recv {
			want := 42.0
			if !faulty.Contains(m.From) {
				d, ok := policy.chose[[3]int{round, m.From, to}]
				if !ok {
					t.Fatalf("round %d: no staleness asked for %d -> %d", round, m.From, to)
				}
				want = tr.States[round-1-min(d, round-1, b-1)][m.From]
			}
			if m.Value != want {
				t.Fatalf("round %d, %d -> %d: got %v, want %v", round, m.From, to, m.Value, want)
			}
		}
	}
}

func TestEarlyRoundsClampStaleness(t *testing.T) {
	// Round 1 has only v[0] available: even MaxStale(B=8) must run without
	// touching uninitialized history.
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := run(t, sim.Config{
		G: g, F: 1, Initial: []float64{0, 1, 2, 3},
		Rule:      core.TrimmedMean{},
		Stale:     delayed.MaxStale{B: 8},
		MaxRounds: 2000, Epsilon: 1e-9,
	})
	if !tr.Converged {
		t.Fatalf("no convergence; range %v", tr.FinalRange())
	}
	// Staleness this deep is genuinely slow (the recurrence
	// x[t] = x[t−1]/2 + x[t−8]/2 has its second characteristic root near
	// 0.98), so only convergence within the cap is asserted.
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []delayed.StalePolicy{delayed.MaxStale{B: 1}, delayed.MaxStale{B: 3}, &uniformStale{b: 3}} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestAlreadyConvergedAtStart(t *testing.T) {
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := run(t, sim.Config{
		G: g, F: 1, Initial: workload.Constant(4, 5),
		Rule: core.TrimmedMean{}, Stale: delayed.MaxStale{B: 2},
		MaxRounds: 10, Epsilon: 1e-6,
	})
	if !tr.Converged || tr.Rounds != 0 {
		t.Fatalf("converged=%v rounds=%d, want true/0", tr.Converged, tr.Rounds)
	}
}
