package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"iabc"
)

// E8Epsilon is the convergence target of E8's asynchronous runs.
const E8Epsilon = 1e-6

// AsyncInstance is one Section 7 run of E8 as data: the graph, the complete
// option list that configures it, and the pieces of that list a caller needs
// to label or judge the outcome. E8 executes it on the deterministic Async
// engine; any runtime accepting the options (iabc.Cluster ignores
// WithDelays) can execute the same instance.
type AsyncInstance struct {
	G         *iabc.Graph
	F         int
	Faulty    iabc.Set
	Initial   []float64
	Adversary iabc.Strategy
	// Delays labels the delay policy inside Opts.
	Delays string
	Opts   []iabc.Option
}

// E8Instances returns E8's four converging runs — K7 (f=1) and K11 (f=2)
// under several adversaries and delay regimes, the last f nodes faulty — and
// the starvation instance: two silent nodes against a budget of f = 1, which
// leaves every quorum one value short. The delay policies are stateful, so
// each call builds fresh instances.
func E8Instances() (runs []AsyncInstance, starved AsyncInstance, err error) {
	build := func(n, f int, faulty iabc.Set, adv iabc.Strategy, delays iabc.DelayPolicy, label string, maxRounds int) (AsyncInstance, error) {
		g, err := iabc.Complete(n)
		if err != nil {
			return AsyncInstance{}, err
		}
		in := AsyncInstance{G: g, F: f, Faulty: faulty, Initial: ramp(n), Adversary: adv, Delays: label}
		in.Opts = []iabc.Option{
			iabc.WithF(f), iabc.WithFaultySet(faulty), iabc.WithInitial(in.Initial),
			iabc.WithAdversary(adv), iabc.WithDelays(delays),
			iabc.WithMaxRounds(maxRounds), iabc.WithEpsilon(E8Epsilon),
		}
		return in, nil
	}
	for _, c := range []struct {
		n, f   int
		adv    iabc.Strategy
		delays iabc.DelayPolicy
		label  string
	}{
		{7, 1, iabc.Fixed{Value: 1e6}, &iabc.UniformDelay{B: 2, Rng: rand.New(rand.NewSource(81))}, "uniform(0,2]"},
		{7, 1, iabc.Extremes{Amplitude: 50}, iabc.TargetedDelay{Slow: iabc.SetOf(7, 1, 2, 3), B: 15, Fast: 0.1}, "targeted(B=15)"},
		{7, 1, iabc.Silent{}, iabc.FixedDelay{D: 1}, "fixed(1)"},
		{11, 2, iabc.Extremes{Amplitude: 100}, &iabc.UniformDelay{B: 3, Rng: rand.New(rand.NewSource(82))}, "uniform(0,3]"},
	} {
		faulty := iabc.NewSet(c.n)
		for i := 0; i < c.f; i++ {
			faulty.Add(c.n - 1 - i)
		}
		in, err := build(c.n, c.f, faulty, c.adv, c.delays, c.label, 3000)
		if err != nil {
			return nil, AsyncInstance{}, err
		}
		runs = append(runs, in)
	}
	starved, err = build(7, 1, iabc.SetOf(7, 5, 6), iabc.Silent{}, iabc.FixedDelay{D: 1}, "fixed(1)", 50)
	return runs, starved, err
}

// e8Async reproduces Section 7: asynchronous iterative consensus under the
// strengthened condition (threshold 2f+1, n > 5f, in-degree ≥ 3f+1).
//
//   - boundary of the strengthened condition on complete graphs: K_{5f}
//     fails, K_{5f+1} passes (the async analogue of Corollary 2);
//   - convergence of the asynchronous algorithm on satisfying graphs under
//     Byzantine faults and adversarial message delays within the bound B,
//     with the simulation time and message count at the end;
//   - starvation, when more than f in-neighbors stay silent, reported as a
//     stall rather than looping.
func e8Async(ctx context.Context) ([]Table, error) {
	boundary := Table{Header: []string{"graph", "f", "async condition", "expected"}}
	for f := 1; f <= 2; f++ {
		for _, n := range []int{5 * f, 5*f + 1} {
			g, err := iabc.Complete(n)
			if err != nil {
				return nil, err
			}
			sat, err := satisfied(ctx, g, f, iabc.WithAsyncCondition())
			if err != nil {
				return nil, err
			}
			want := n > 5*f
			boundary.Rows = append(boundary.Rows, row(sat == want, fmt.Sprintf("K%d", n), f, sat, want))
		}
	}

	instances, starved, err := E8Instances()
	if err != nil {
		return nil, err
	}
	runs := Table{Header: []string{"graph", "f", "adversary", "delays", "converged", "time", "deliveries"}}
	for _, in := range instances {
		out, err := iabc.Simulate(ctx, in.G, append(in.Opts, iabc.WithEngine(iabc.Async))...)
		if err != nil {
			return nil, err
		}
		runs.Rows = append(runs.Rows, row(out.Converged,
			fmt.Sprintf("K%d", in.G.N()), in.F, in.Adversary.Name(), in.Delays,
			out.Converged, fmt.Sprintf("%.1f", out.AsyncTrace.Time), out.AsyncTrace.Deliveries))
	}

	out, err := iabc.Simulate(ctx, starved.G, append(starved.Opts, iabc.WithEngine(iabc.Async))...)
	if err != nil {
		return nil, err
	}
	stalled := out.AsyncTrace.Stalled && !out.Converged
	return []Table{boundary, runs, note(stalled, "starvation (2 silent, f=1) detected as stall: %v", stalled)}, nil
}
