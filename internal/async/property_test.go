package async

import (
	"context"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
	"iabc/internal/workload"
)

// TestRandomConfigurationsStaySafe is the asynchronous safety property
// sampled across random dense digraphs: whatever the delays and the
// Byzantine strategy, fault-free states never leave the initial honest
// hull, and every run terminates in a classified state (converged, stalled,
// or round-capped) rather than hanging.
func TestRandomConfigurationsStaySafe(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	ran := 0
	for trial := 0; trial < 60 && ran < 20; trial++ {
		n := 5 + rng.Intn(5) // 5..9
		f := rng.Intn(2)     // 0..1
		g, err := topology.RandomDigraph(n, 0.8+0.2*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinInDegree() < 3*f+1 {
			continue
		}
		faulty := nodeset.New(n)
		if f > 0 {
			faulty.Add(rng.Intn(n))
		}
		initial := workload.Uniform(n, -5, 5, rng)
		lo, hi := 5.0, -5.0
		faulty.Complement().ForEach(func(i int) bool {
			if initial[i] < lo {
				lo = initial[i]
			}
			if initial[i] > hi {
				hi = initial[i]
			}
			return true
		})

		strategies := []adversary.Strategy{
			adversary.Fixed{Value: 1e9},
			adversary.Silent{},
			&adversary.RandomNoise{Rng: rand.New(rand.NewSource(int64(trial))), Lo: -1e6, Hi: 1e6},
		}
		strat := strategies[rng.Intn(len(strategies))]

		delays := []DelayPolicy{
			Fixed{D: 1},
			&Uniform{B: 3, Rng: rand.New(rand.NewSource(int64(trial) + 1))},
			Targeted{Slow: nodeset.FromMembers(n, 0, 1), B: 10, Fast: 0.2},
		}
		tr, err := Run(context.Background(), Config{
			G: g, F: f, Faulty: faulty, Initial: initial,
			Rule:      core.TrimmedMean{},
			Adversary: strat,
			Delays:    delays[rng.Intn(len(delays))],
			MaxRounds: 300, Epsilon: 1e-6,
			OnRange: func(_, rng float64) {
				if rng > (hi-lo)+1e-9 {
					t.Errorf("trial %d: range %v exceeded initial %v", trial, rng, hi-lo)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ran++
		faulty.Complement().ForEach(func(i int) bool {
			if tr.Final[i] < lo-1e-9 || tr.Final[i] > hi+1e-9 {
				t.Errorf("trial %d: node %d final %v escaped honest hull [%v,%v] under %s",
					trial, i, tr.Final[i], lo, hi, strat.Name())
			}
			return true
		})
	}
	if ran < 10 {
		t.Fatalf("only %d configurations exercised", ran)
	}
}
