package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// replayExtras builds K deterministic extra initial vectors for an n-node
// graph, anchored so vector 0 replays the primary initial state.
func replayExtras(n, K int, seed int64, primary []float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	extras := make([][]float64, K)
	extras[0] = append([]float64(nil), primary...)
	for x := 1; x < K; x++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*40 - 20
		}
		extras[x] = v
	}
	return extras
}

// runBatch runs cfg as a one-scenario Matrix sweep replaying extras — the
// production batch path — and returns its trace and finals.
func runBatch(cfg Config, extras [][]float64) (*Trace, [][]float64, error) {
	res, err := Sweep(context.Background(), cfg, []Scenario{{}}, SweepOptions{Engine: Matrix{}, Workers: 1, Extras: extras})
	if err != nil {
		return nil, nil, err
	}
	return res.Traces[0], res.Finals[0], nil
}

// retainSink is the programSink of the record-then-replay reference: it
// clones every round's program, O(rounds · edges) memory in all.
type retainSink struct{ progs []*roundProgram }

func (s *retainSink) step(pr *roundProgram) {
	s.progs = append(s.progs, &roundProgram{
		rowOff: slices.Clone(pr.rowOff),
		cols:   slices.Clone(pr.cols),
		consts: slices.Clone(pr.consts),
		weight: slices.Clone(pr.weight),
	})
}

// runBatchRetained is the record-then-replay reference for the streaming
// batch replay: it retains every executed round's program and, after the
// primary run, replays the whole sequence over each extra vector on its own
// with the scalar apply.
func runBatchRetained(cfg Config, extras [][]float64) (*Trace, [][]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	var sink retainSink
	tr, err := runMatrixOn(Matrix{}.newRunner(cfg.G).(*matrixRunner), &cfg, &sink)
	if err != nil {
		return nil, nil, err
	}
	finals := make([][]float64, len(extras))
	for x, init := range extras {
		cur, nxt := slices.Clone(init), make([]float64, len(init))
		for _, pr := range sink.progs {
			pr.apply(cur, nxt)
			cur, nxt = nxt, cur
		}
		finals[x] = cur
	}
	return &tr.Trace, finals, nil
}

// TestStreamingReplayMatchesRetainedReference pins the streaming batch
// replay behind Sweep's Extras bit-identical to the record-then-replay
// reference across the full conformance table × K ∈ {1, 7, 64}: same
// primary trace, same finals for every extra vector. This is the contract
// that let the retained program sequence be deleted from the production
// path.
func TestStreamingReplayMatchesRetainedReference(t *testing.T) {
	for _, sc := range conformanceScenarios() {
		sc := sc
		switch sc.rule.(type) {
		case core.TrimmedMean, core.Mean:
		default:
			continue // matrix engine requires an affine-representable rule
		}
		t.Run(sc.name, func(t *testing.T) {
			for _, K := range []int{1, 7, 64} {
				cfg := sc.buildConfig(t, false)
				extras := replayExtras(cfg.G.N(), K, int64(1888+K), cfg.Initial)

				refTr, refFinals, err := runBatchRetained(sc.buildConfig(t, false), extras)
				if err != nil {
					t.Fatalf("K=%d: retained reference: %v", K, err)
				}
				gotTr, gotFinals, err := runBatch(cfg, extras)
				if err != nil {
					t.Fatalf("K=%d: streaming: %v", K, err)
				}

				assertTracesEqual(t, "primary", refTr, gotTr)
				if len(gotFinals) != len(refFinals) {
					t.Fatalf("K=%d: got %d finals, want %d", K, len(gotFinals), len(refFinals))
				}
				for x := range refFinals {
					for i := range refFinals[x] {
						if math.Float64bits(refFinals[x][i]) != math.Float64bits(gotFinals[x][i]) {
							t.Fatalf("K=%d: finals[%d][%d]: streaming %v != retained %v",
								K, x, i, gotFinals[x][i], refFinals[x][i])
						}
					}
				}
			}
		})
	}
}

// refProgram is the pre-CSR per-row program representation, kept only here
// as the semantic reference for the flat kernel: row i is a slice of terms
// evaluated in order, col ≥ 0 reading the state vector and col < 0
// contributing the literal.
type refProgram struct {
	rows   [][]refTerm
	weight []float64
}

type refTerm struct {
	col int
	lit float64
}

func (rp *refProgram) apply(src, dst []float64) {
	for i, row := range rp.rows {
		sum := src[i]
		for _, tm := range row {
			if tm.col >= 0 {
				sum += src[tm.col]
			} else {
				sum += tm.lit
			}
		}
		dst[i] = rp.weight[i] * sum
	}
}

// flatten re-encodes the reference program in the production CSR layout.
func (rp *refProgram) flatten() *roundProgram {
	pr := &roundProgram{}
	pr.reset(len(rp.rows))
	for i, row := range rp.rows {
		pr.weight[i] = rp.weight[i]
		for _, tm := range row {
			if tm.col >= 0 {
				pr.cols = append(pr.cols, int32(tm.col))
			} else {
				pr.cols = append(pr.cols, -1)
				pr.consts = append(pr.consts, tm.lit)
			}
		}
		pr.endRow()
	}
	return pr
}

// FuzzRoundProgramFlat decodes random row-stochastic programs and state
// vectors from the fuzz input and requires the CSR flat kernel to match the
// per-row reference bit for bit — apply against the reference row walk, and
// applyBatch against K independent scalar applies.
func FuzzRoundProgramFlat(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{8, 0, 0, 0xFF, 0xFF, 7, 7, 7, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{1, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := int(next())%8 + 1
		rp := &refProgram{rows: make([][]refTerm, n), weight: make([]float64, n)}
		for i := 0; i < n; i++ {
			terms := int(next()) % 5
			for k := 0; k < terms; k++ {
				sel := int(next()) % (n + 1)
				if sel == n {
					rp.rows[i] = append(rp.rows[i], refTerm{col: -1, lit: float64(next())/16 - 8})
				} else {
					rp.rows[i] = append(rp.rows[i], refTerm{col: sel})
				}
			}
			// Row-stochastic weighting: equal weight over own state + terms.
			rp.weight[i] = 1 / float64(len(rp.rows[i])+1)
		}
		pr := rp.flatten()

		const K = 5
		src := make([]float64, n)
		soa := make([]float64, n*K)
		cols := make([][]float64, K)
		for x := 0; x < K; x++ {
			cols[x] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			src[i] = float64(next())/8 - 16
			for x := 0; x < K; x++ {
				v := float64(next())/8 - 16
				soa[i*K+x] = v
				cols[x][i] = v
			}
		}

		want := make([]float64, n)
		rp.apply(src, want)
		got := make([]float64, n)
		pr.apply(src, got)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("apply: dst[%d] = %v, reference %v", i, got[i], want[i])
			}
		}

		dst := make([]float64, n*K)
		acc := make([]float64, K)
		pr.applyBatch(soa, dst, K, acc)
		for x := 0; x < K; x++ {
			rp.apply(cols[x], want)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(dst[i*K+x]) {
					t.Fatalf("applyBatch: vector %d dst[%d] = %v, scalar reference %v",
						x, i, dst[i*K+x], want[i])
				}
			}
		}
	})
}

// batchAllocsConfig is the fixture for the streaming-replay allocation
// gates: a core network run that never converges, so the round count is
// exactly MaxRounds.
func batchAllocsConfig(t *testing.T, rounds int) (Config, [][]float64) {
	t.Helper()
	g, err := topology.CoreNetwork(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, 16)
	for i := range initial {
		initial[i] = float64(i)
	}
	cfg := Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(16, 0, 1), Initial: initial,
		Rule: core.TrimmedMean{}, Adversary: adversary.Extremes{Amplitude: 30},
		MaxRounds: rounds,
	}
	return cfg, replayExtras(16, 8, 99, initial)
}

// TestStreamingReplayZeroSteadyStateAllocs extends the differential allocs
// gate to the streaming batch replay: a batch sweep with 4× the rounds must
// allocate exactly as much as the short one (setup plus finals only) — the
// single rebuilt-in-place program adds nothing per round. The retained
// reference cannot pass this (one program per round), which the second half
// demonstrates.
func TestStreamingReplayZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates nondeterministically")
	}
	measureStream := func(rounds int) float64 {
		cfg, extras := batchAllocsConfig(t, rounds)
		return testing.AllocsPerRun(5, func() {
			tr, _, err := runBatch(cfg, extras)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Rounds != rounds {
				t.Fatalf("rounds = %d, want %d", tr.Rounds, rounds)
			}
		})
	}
	short, long := measureStream(100), measureStream(400)
	if long > short {
		t.Errorf("streaming replay allocates in steady state: %.1f allocs at 100 rounds vs %.1f at 400 (≈%.3f/round)",
			short, long, (long-short)/300)
	}

	measureRetained := func(rounds int) float64 {
		cfg, extras := batchAllocsConfig(t, rounds)
		return testing.AllocsPerRun(5, func() {
			if _, _, err := runBatchRetained(cfg, extras); err != nil {
				t.Fatal(err)
			}
		})
	}
	if rShort, rLong := measureRetained(100), measureRetained(400); rLong <= rShort {
		t.Errorf("retained reference no longer allocates per round (%.1f at 100 rounds vs %.1f at 400); the differential gate has lost its discriminating power",
			rShort, rLong)
	}
}

// TestStreamingReplayProgramMemoryOEdges is the acceptance bound for the
// O(edges) claim: MaxRounds = 10⁵ on chord(16,2) with K = 32 must fit under
// a total allocation budget that is obviously independent of the round
// count, while the retained-program reference — one program per round —
// blows through it at a fraction of the rounds.
func TestStreamingReplayProgramMemoryOEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates nondeterministically")
	}
	g, err := topology.Chord(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, 16)
	for i := range initial {
		initial[i] = float64(i)
	}
	const K = 32
	extras := replayExtras(16, K, 7, initial)
	mkCfg := func(rounds int) Config {
		return Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(16, 3), Initial: initial,
			Rule: core.TrimmedMean{}, Adversary: adversary.Extremes{Amplitude: 30},
			MaxRounds: rounds,
		}
	}

	// The budget covers setup (plane, scratch, trace, SoA buffers, finals)
	// plus the amortized growth of the round-indexed U/µ history past its
	// 4096-entry preallocation — a few dozen allocations, nowhere near one
	// per round.
	const budget = 500

	streaming := testing.AllocsPerRun(1, func() {
		tr, _, err := runBatch(mkCfg(100_000), extras)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Rounds != 100_000 {
			t.Fatalf("rounds = %d, want 100000", tr.Rounds)
		}
	})
	if streaming > budget {
		t.Errorf("streaming batch replay at 10⁵ rounds: %.0f allocs, budget %d — program memory is not O(edges)", streaming, budget)
	}

	// The retained path allocates at least one program per round: even at
	// 1/50 of the rounds it cannot meet the same budget.
	retained := testing.AllocsPerRun(1, func() {
		if _, _, err := runBatchRetained(mkCfg(2_000), extras); err != nil {
			t.Fatal(err)
		}
	})
	if retained <= budget {
		t.Errorf("retained reference at 2000 rounds: %.0f allocs — unexpectedly within the streaming budget %d; the bound no longer discriminates", retained, budget)
	}
}
