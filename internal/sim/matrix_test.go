package sim

import (
	"math"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// TestMatrixTraceBitIdenticalToSequential is the matrix-representation
// cross-check: on randomized topologies, fault sets, and adversaries, the
// Matrix engine's traces equal Sequential's bit for bit.
func TestMatrixTraceBitIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1888)) // arXiv:1203.1888
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		f := rng.Intn(3)
		if n < 3*f+1 {
			f = 0
		}
		g, err := topology.RandomDigraph(n, 0.85, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinInDegree() < 2*f+1 {
			continue
		}
		initial := make([]float64, n)
		for i := range initial {
			initial[i] = rng.NormFloat64() * 3
		}
		faulty := nodeset.New(n)
		for k := 0; k < f; k++ {
			faulty.Add(rng.Intn(n))
		}
		var strat adversary.Strategy
		seed := rng.Int63()
		makeCfg := func() Config {
			switch trial % 4 {
			case 0:
				strat = &adversary.RandomNoise{Rng: rand.New(rand.NewSource(seed)), Lo: -4, Hi: 9}
			case 1:
				strat = adversary.Extremes{Amplitude: 7}
			case 2:
				strat = adversary.Silent{}
			default:
				strat = adversary.Hug{High: true}
			}
			if faulty.Empty() {
				strat = nil
			}
			rule := core.UpdateRule(core.TrimmedMean{})
			if f == 0 && trial%2 == 0 {
				rule = core.Mean{}
			}
			return Config{
				G: g, F: f, Faulty: faulty, Initial: initial,
				Rule: rule, Adversary: strat,
				MaxRounds: 50, Epsilon: 1e-10, RecordStates: true,
			}
		}
		trSeq, err := Sequential{}.Run(makeCfg())
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		trMat, err := Matrix{}.Run(makeCfg())
		if err != nil {
			t.Fatalf("trial %d matrix: %v", trial, err)
		}
		if trSeq.Rounds != trMat.Rounds || trSeq.Converged != trMat.Converged {
			t.Fatalf("trial %d: rounds/converged mismatch: %d/%v vs %d/%v",
				trial, trSeq.Rounds, trSeq.Converged, trMat.Rounds, trMat.Converged)
		}
		for r := 0; r <= trSeq.Rounds; r++ {
			if math.Float64bits(trSeq.U[r]) != math.Float64bits(trMat.U[r]) ||
				math.Float64bits(trSeq.Mu[r]) != math.Float64bits(trMat.Mu[r]) {
				t.Fatalf("trial %d round %d: U/µ mismatch", trial, r)
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(trSeq.States[r][i]) != math.Float64bits(trMat.States[r][i]) {
					t.Fatalf("trial %d round %d node %d: %v vs %v",
						trial, r, i, trSeq.States[r][i], trMat.States[r][i])
				}
			}
		}
	}
}

// TestMatrixRunBatchReplaysPrimary checks the replay contract: feeding the
// primary initial vector through the batch replay reproduces the
// primary final state exactly, and every extra vector gets a final of the
// right shape.
func TestMatrixRunBatchReplaysPrimary(t *testing.T) {
	g, err := topology.CoreNetwork(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i) / 2
	}
	cfg := Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(n, 0, 1),
		Initial: initial, Rule: core.TrimmedMean{},
		Adversary: adversary.Extremes{Amplitude: 20},
		MaxRounds: 120, Epsilon: 1e-9,
	}
	extras := [][]float64{
		append([]float64(nil), initial...),
		make([]float64, n), // all zeros
	}
	tr, finals, err := runBatch(cfg, extras)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != len(extras) {
		t.Fatalf("got %d finals, want %d", len(finals), len(extras))
	}
	for i := range tr.Final {
		if math.Float64bits(finals[0][i]) != math.Float64bits(tr.Final[i]) {
			t.Fatalf("replay of primary initial diverged at node %d: %v vs %v",
				i, finals[0][i], tr.Final[i])
		}
	}
	if len(finals[1]) != n {
		t.Fatalf("extra final has length %d, want %d", len(finals[1]), n)
	}
}

// TestMatrixRunBatchSoAMatchesScalarReplay is the SoA property test: the
// batched structure-of-arrays replay must be bit-identical to replaying each
// extra vector on its own (a K=1 batch walks the program rows exactly like
// the scalar apply), across random scenarios and with NaN/±Inf entries in
// the extras. Including the primary initial vector among the extras also
// cross-checks applyBatch against the primary loop's scalar apply.
func TestMatrixRunBatchSoAMatchesScalarReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0}
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(8)
		f := rng.Intn(3)
		if n < 3*f+1 {
			f = 0
		}
		g, err := topology.RandomDigraph(n, 0.85, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinInDegree() < 2*f+1 {
			continue
		}
		initial := make([]float64, n)
		for i := range initial {
			initial[i] = rng.NormFloat64() * 5
		}
		faulty := nodeset.New(n)
		for k := 0; k < f; k++ {
			faulty.Add(rng.Intn(n))
		}
		var strat adversary.Strategy
		if !faulty.Empty() {
			strat = adversary.Extremes{Amplitude: 11}
		}
		cfg := Config{
			G: g, F: f, Faulty: faulty, Initial: initial,
			Rule: core.TrimmedMean{}, Adversary: strat,
			MaxRounds: 40, Epsilon: 1e-12,
		}
		K := 2 + rng.Intn(7)
		extras := make([][]float64, K)
		extras[0] = append([]float64(nil), initial...) // anchor: primary replay
		for x := 1; x < K; x++ {
			v := make([]float64, n)
			for i := range v {
				if rng.Intn(6) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				} else {
					v[i] = rng.NormFloat64() * 10
				}
			}
			extras[x] = v
		}
		tr, batched, err := runBatch(cfg, extras)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range tr.Final {
			if math.Float64bits(batched[0][i]) != math.Float64bits(tr.Final[i]) {
				t.Fatalf("trial %d: batched primary replay diverged from scalar apply at node %d: %v vs %v",
					trial, i, batched[0][i], tr.Final[i])
			}
		}
		for x := 1; x < K; x++ {
			_, single, err := runBatch(cfg, [][]float64{extras[x]})
			if err != nil {
				t.Fatalf("trial %d extra %d: %v", trial, x, err)
			}
			for i := range single[0] {
				if math.Float64bits(batched[x][i]) != math.Float64bits(single[0][i]) {
					t.Fatalf("trial %d extra %d node %d: SoA %v vs scalar %v",
						trial, x, i, batched[x][i], single[0][i])
				}
			}
		}
	}
}

// TestMatrixRunBatchMatchesIndependentRuns covers the one regime where the
// replay semantics coincide with full re-simulation: with f = 0, no faults,
// and no epsilon stop the round transition is state-independent, so the
// recorded programs applied to any initial vector equal an independent
// engine run from that vector.
func TestMatrixRunBatchMatchesIndependentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(6)
		g, err := topology.RandomDigraph(n, 0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinInDegree() < 1 {
			continue
		}
		initial := make([]float64, n)
		for i := range initial {
			initial[i] = rng.Float64() * 4
		}
		cfg := Config{
			G: g, F: 0, Initial: initial,
			Rule: core.TrimmedMean{}, MaxRounds: 25, // Epsilon 0: run all rounds
		}
		const K = 5
		extras := make([][]float64, K)
		for x := range extras {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			extras[x] = v
		}
		_, finals, err := runBatch(cfg, extras)
		if err != nil {
			t.Fatal(err)
		}
		for x := range extras {
			indep := cfg
			indep.Initial = extras[x]
			tr, err := Sequential{}.Run(indep)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Final {
				if math.Float64bits(finals[x][i]) != math.Float64bits(tr.Final[i]) {
					t.Fatalf("trial %d extra %d node %d: batch %v vs independent run %v",
						trial, x, i, finals[x][i], tr.Final[i])
				}
			}
		}
	}
}

// TestMatrixRejectsNonAffineRule: TrimmedMidpoint rounds are not affine in
// the state, so the matrix engine must refuse them.
func TestMatrixRejectsNonAffineRule(t *testing.T) {
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Matrix{}.Run(Config{
		G: g, F: 1, Initial: make([]float64, 5),
		Rule: core.TrimmedMidpoint{}, MaxRounds: 3,
	})
	if err == nil {
		t.Fatal("matrix engine should reject TrimmedMidpoint")
	}
}
