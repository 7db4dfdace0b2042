package node

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
	"iabc/internal/transport"
)

// runChaosHull derives a whole adversarial scenario from one seed — graph
// size, fault placement, adversary, initial values, drop/dup/delay rates,
// and a healing partition window — runs the cluster through it, and asserts
// the two properties that must survive any delivery pattern:
//
//  1. Validity on every observed update: no fault-free estimate ever leaves
//     the initial fault-free hull (the safety half of the guarantee, which
//     needs no liveness assumption at all).
//  2. ε-convergence: since the partition heals and drops are masked by
//     resends, delivery is eventual, so the Part II convergence theorem
//     applies and the run must not stall.
//
// A stall verdict gets one retry: wall-clock-based chaos on a starved CI
// scheduler can legitimately exceed StallAfter between updates, while a
// genuine liveness bug stalls on every attempt. Validity violations are
// never retried — they fail the test on first sight.
func runChaosHull(t testing.TB, seed int64, maxRounds int) {
	for attempt := 0; ; attempt++ {
		res, chaosStats, desc := chaosHullAttempt(t, seed, maxRounds)
		if res.Converged {
			return
		}
		if attempt == 1 {
			t.Fatalf("seed %d (%s): no convergence twice: stalled=%v finalRange=%v updates=%d resends=%d abandoned=%d stats=%+v",
				seed, desc, res.Stalled, res.FinalRange, res.Updates, res.Resends, res.Abandoned, chaosStats)
		}
		t.Logf("seed %d (%s): attempt %d stalled (finalRange=%v); retrying once", seed, desc, attempt, res.FinalRange)
	}
}

func chaosHullAttempt(t testing.TB, seed int64, maxRounds int) (*Result, transport.Stats, string) {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(3)
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	faultyNode := rng.Intn(n)
	faulty := nodeset.FromMembers(n, faultyNode)

	advs := []adversary.Strategy{
		adversary.Extremes{Amplitude: 1 + 4*rng.Float64()},
		adversary.Hug{High: rng.Intn(2) == 0},
		adversary.Fixed{Value: -50 + 100*rng.Float64()},
	}
	adv := advs[rng.Intn(len(advs))]

	initial := make([]float64, n)
	for i := range initial {
		initial[i] = 10 * rng.Float64()
	}
	lo0, hi0 := math.Inf(1), math.Inf(-1)
	faulty.Complement().ForEach(func(i int) bool {
		lo0, hi0 = math.Min(lo0, initial[i]), math.Max(hi0, initial[i])
		return true
	})

	// A random cut that heals: liveness is suspended, never destroyed.
	side := rng.Perm(n)[:1+rng.Intn(n-1)]
	a := nodeset.FromMembers(n, side...)
	ch := transport.NewChaos(transport.NewInproc(n, 256), transport.ChaosConfig{
		Seed:     seed,
		Drop:     0.1 + 0.2*rng.Float64(),
		Dup:      0.3 * rng.Float64(),
		MaxDelay: time.Duration(1+2*rng.Float64()) * time.Millisecond,
		Partitions: []transport.Partition{{
			A: a, B: a.Complement(), From: 4 * time.Millisecond, Until: 12 * time.Millisecond,
		}},
	})
	defer ch.Close()

	cfg := Config{
		G: g, F: 1, Faulty: faulty, Initial: initial,
		Rule: core.TrimmedMean{}, Adversary: adv, Transport: ch,
		MaxRounds: maxRounds, Epsilon: 1e-4,
		ResendEvery: 2 * time.Millisecond,
		StallAfter:  2 * time.Second, // bounded wall time even if the property fails
	}
	violations := 0
	cfg.OnUpdate = func(node, round int, value, rngNow float64) {
		if value < lo0-1e-9 || value > hi0+1e-9 {
			if violations < 5 {
				t.Errorf("seed %d (%s): node %d round %d: value %v outside initial hull [%v, %v]",
					seed, adv.Name(), node, round, value, lo0, hi0)
			}
			violations++
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res, ch.Stats(), fmt.Sprintf("%s, n=%d", adv.Name(), n)
}

// TestClusterChaosProperty drives a seed battery through runChaosHull.
func TestClusterChaosProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runChaosHull(t, seed, 150)
		})
	}
}

// FuzzClusterChaosHull lets the fuzzer hunt for a chaos schedule that
// violates validity or starves a run that should converge. Under plain `go
// test` only the corpus seeds run; `go test -fuzz=ClusterChaosHull` mines
// new ones.
func FuzzClusterChaosHull(f *testing.F) {
	for _, seed := range []int64{1, 7, 13} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runChaosHull(t, seed, 80)
	})
}

// TestClusterChaosSoak is the CI chaos-soak entry point: a wider seed
// matrix, overridable via IABC_SOAK_SEEDS (comma-separated integers), with
// wall time bounded per seed by StallAfter + MaxRounds. Skipped under
// -short so the quick loop stays quick.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	seeds := []int64{101, 202, 303, 404}
	if env := os.Getenv("IABC_SOAK_SEEDS"); env != "" {
		seeds = seeds[:0]
		for _, s := range strings.Split(env, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				t.Fatalf("IABC_SOAK_SEEDS: %v", err)
			}
			seeds = append(seeds, v)
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runChaosHull(t, seed, 200)
		})
	}
}
