package async

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
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
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	good := Config{
		G: g, F: 1, Initial: initialRamp(7), Rule: core.TrimmedMean{},
		Delays: Fixed{D: 1}, MaxRounds: 10,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"nil graph", func(c *Config) { c.G = nil }},
		{"bad initial", func(c *Config) { c.Initial = nil }},
		{"nil rule", func(c *Config) { c.Rule = nil }},
		{"nil delays", func(c *Config) { c.Delays = nil }},
		{"zero rounds", func(c *Config) { c.MaxRounds = 0 }},
		{"negative F", func(c *Config) { c.F = -1 }},
		{"faulty capacity", func(c *Config) { c.Faulty = nodeset.FromMembers(3, 0) }},
		{"faulty no adversary", func(c *Config) { c.Faulty = nodeset.FromMembers(7, 0) }},
		{"all faulty", func(c *Config) {
			c.Faulty = nodeset.Universe(7)
			c.Adversary = adversary.Fixed{Value: 0}
		}},
		// Quorum = in-degree − F = 6−2 = 4 < 2F+1 = 5: async needs
		// in-degree ≥ 3f+1 = 7 > 6.
		{"in-degree below 3f+1", func(c *Config) { c.F = 2 }},
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

func TestDelayPolicies(t *testing.T) {
	if d := (Fixed{D: 2.5}).Delay(0, 1, 3); d != 2.5 {
		t.Errorf("Fixed delay = %v", d)
	}
	u := &Uniform{B: 3, Rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 100; i++ {
		d := u.Delay(0, 1, i)
		if d <= 0 || d > 3 {
			t.Fatalf("uniform delay %v outside (0,3]", d)
		}
	}
	tg := Targeted{Slow: nodeset.FromMembers(4, 2), B: 10, Fast: 0.5}
	if d := tg.Delay(2, 0, 0); d != 10 {
		t.Errorf("slow sender delay = %v, want 10", d)
	}
	if d := tg.Delay(1, 0, 0); d != 0.5 {
		t.Errorf("fast sender delay = %v, want 0.5", d)
	}
	for _, p := range []DelayPolicy{Fixed{D: 1}, u, tg} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestAsyncConvergesNoFaults(t *testing.T) {
	g, err := topology.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), Config{
		G: g, F: 0, Initial: initialRamp(6), Rule: core.TrimmedMean{},
		Delays:    &Uniform{B: 2, Rng: rand.New(rand.NewSource(3))},
		MaxRounds: 200, Epsilon: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged {
		t.Fatalf("no convergence; rounds %v", tr.Rounds)
	}
	if tr.Stalled {
		t.Error("converged run marked stalled")
	}
}

func TestAsyncConvergesUnderByzantineFault(t *testing.T) {
	// K7 with f=1 satisfies the async requirements: in-degree 6 ≥ 3f+1,
	// n = 7 > 5f.
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []adversary.Strategy{
		adversary.Fixed{Value: 1e6},
		adversary.Silent{},
		adversary.Extremes{Amplitude: 100},
		&adversary.RandomNoise{Rng: rand.New(rand.NewSource(4)), Lo: -50, Hi: 50},
	} {
		tr, err := Run(context.Background(), Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(7, 6),
			Initial: initialRamp(7), Rule: core.TrimmedMean{},
			Adversary: strat,
			Delays:    &Uniform{B: 1.5, Rng: rand.New(rand.NewSource(5))},
			MaxRounds: 500, Epsilon: 1e-8,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if !tr.Converged {
			t.Errorf("%s: no convergence (stalled=%v)", strat.Name(), tr.Stalled)
		}
		// Validity: fault-free finals inside the initial fault-free hull.
		for i := 0; i < 6; i++ {
			if tr.Final[i] < -1e-9 || tr.Final[i] > 5+1e-9 {
				t.Errorf("%s: node %d final %v outside [0,5]", strat.Name(), i, tr.Final[i])
			}
		}
	}
}

func TestAsyncAdversarialDelays(t *testing.T) {
	// Messages from half the fault-free nodes maximally delayed: the quorum
	// mechanism must still deliver convergence.
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), Config{
		G: g, F: 1, Faulty: nodeset.FromMembers(7, 0),
		Initial: initialRamp(7), Rule: core.TrimmedMean{},
		Adversary: adversary.Hug{High: true},
		Delays: Targeted{
			Slow: nodeset.FromMembers(7, 1, 2, 3),
			B:    20, Fast: 0.1,
		},
		MaxRounds: 800, Epsilon: 1e-7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged {
		t.Fatalf("no convergence under targeted delays (stalled=%v)", tr.Stalled)
	}
}

func TestAsyncStallsWhenTooManySilent(t *testing.T) {
	// Two silent nodes with F=1: quorum 6−1=5 but only 4 fault-free
	// in-neighbors respond for every node — permanent starvation, which the
	// engine must report as a stall, not loop forever.
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), Config{
		G: g, F: 1, Faulty: nodeset.FromMembers(7, 5, 6),
		Initial: initialRamp(7), Rule: core.TrimmedMean{},
		Adversary: adversary.Silent{},
		Delays:    Fixed{D: 1},
		MaxRounds: 50, Epsilon: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Converged {
		t.Fatal("should not converge")
	}
	if !tr.Stalled {
		t.Fatal("starved run not marked stalled")
	}
}

func TestAsyncDeterminism(t *testing.T) {
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Trace {
		tr, err := Run(context.Background(), Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(7, 3),
			Initial: initialRamp(7), Rule: core.TrimmedMean{},
			Adversary: &adversary.RandomNoise{Rng: rand.New(rand.NewSource(8)), Lo: -10, Hi: 10},
			Delays:    &Uniform{B: 2, Rng: rand.New(rand.NewSource(9))},
			MaxRounds: 100, Epsilon: 1e-8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if a.Deliveries != b.Deliveries || a.Time != b.Time || a.Converged != b.Converged {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] {
			t.Fatalf("final state %d differs: %v vs %v", i, a.Final[i], b.Final[i])
		}
	}
}

func TestAsyncValidityEnvelope(t *testing.T) {
	// States must never leave the initial fault-free hull, even under an
	// extreme liar (async validity).
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free hull: [0, 7]; the range is checked after every state change.
	var points int
	tr, err := Run(context.Background(), Config{
		G: g, F: 1, Faulty: nodeset.FromMembers(7, 2),
		Initial: []float64{3, 0, 100, 7, 5, 1, 4}, // faulty node 2's input irrelevant
		Rule:    core.TrimmedMean{},
		Adversary: adversary.Extremes{
			Amplitude: 1e6,
		},
		Delays:    &Uniform{B: 3, Rng: rand.New(rand.NewSource(10))},
		MaxRounds: 300, Epsilon: 1e-8,
		OnRange: func(time, rng float64) {
			points++
			if rng > 7+1e-9 {
				t.Errorf("range %v at t=%v exceeded initial envelope 7", rng, time)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if points == 0 {
		t.Fatal("OnRange never fired")
	}
	faultFree := nodeset.FromMembers(7, 0, 1, 3, 4, 5, 6)
	faultFree.ForEach(func(i int) bool {
		if tr.Final[i] < -1e-9 || tr.Final[i] > 7+1e-9 {
			t.Errorf("node %d final %v outside [0,7]", i, tr.Final[i])
		}
		return true
	})
	if !tr.Converged {
		t.Error("should converge")
	}
}

func TestAsyncLockstepMatchesIntuition(t *testing.T) {
	// Fixed equal delays degrade asynchrony to round-robin lockstep; the
	// run must converge to the same consensus value neighborhood as sync.
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), Config{
		G: g, F: 0, Initial: []float64{0, 1, 2, 3, 4}, Rule: core.TrimmedMean{},
		Delays: Fixed{D: 1}, MaxRounds: 50, Epsilon: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged {
		t.Fatal("lockstep async should converge")
	}
	// K5 mean: fixpoint is the average 2.
	for i := 0; i < 5; i++ {
		if math.Abs(tr.Final[i]-2) > 1e-6 {
			t.Errorf("node %d final %v, want ≈ 2", i, tr.Final[i])
		}
	}
}

func TestMinRound(t *testing.T) {
	tr := &Trace{Rounds: []int{5, 3, 9}}
	ff := nodeset.FromMembers(3, 0, 2)
	if got := tr.MinRound(ff); got != 5 {
		t.Errorf("MinRound = %d, want 5", got)
	}
}
