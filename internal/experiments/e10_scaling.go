package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/sim"
	"iabc/internal/topology"
)

// E10Result characterizes the cost of the machinery itself (the paper's
// condition is coNP-hard to check in general; this quantifies what "exact
// but exponential" means in practice, and how fast the two engines step):
//
//   - exact checker work (fault sets and candidate sets examined, wall
//     time) across a family of growing core networks;
//   - rounds/second for the sequential and matrix engines.
//
// Exact timings live in bench_test.go; this table gives the deterministic
// counters plus a coarse wall-clock so `iabc experiments` output stands on
// its own.
type E10Result struct {
	Checker []E10CheckerRow
	Engines []E10EngineRow
	// ParallelSpeedup is the measured scenarios(8)×workers(P) throughput
	// over the single-worker scenarios(8) row — the multi-core scaling
	// number the parallel sweep exists for. It is recorded only when the
	// host has more than one CPU (a single-core host runs both rows on the
	// same core, making the ratio ≈ 1 by construction; see the
	// "Parallel-sweep scaling caveat" in EXPERIMENTS.md); 0 means
	// not measured.
	ParallelSpeedup float64
	// SpeedupWorkers is the worker count P behind ParallelSpeedup.
	SpeedupWorkers int
}

// E10CheckerRow is one condition-check cost measurement.
type E10CheckerRow struct {
	Graph      string
	N, F       int
	Satisfied  bool
	FaultSets  int64
	Candidates int64
	Elapsed    time.Duration
}

// E10EngineRow is one engine throughput measurement.
type E10EngineRow struct {
	Engine string
	N      int
	Rounds int
	// RoundsPerSec is the coarse throughput (benchmarks give the precise
	// figure).
	RoundsPerSec float64
}

// Title implements Report.
func (*E10Result) Title() string {
	return "E10 — cost of exactness: checker work growth and engine throughput"
}

// Table implements Report.
func (r *E10Result) Table() string {
	rows := make([][]string, 0, len(r.Checker))
	for _, c := range r.Checker {
		rows = append(rows, []string{
			c.Graph, fmt.Sprint(c.N), fmt.Sprint(c.F), yes(c.Satisfied),
			fmt.Sprint(c.FaultSets), fmt.Sprint(c.Candidates), c.Elapsed.Round(time.Microsecond).String(),
		})
	}
	out := table([]string{"graph", "n", "f", "satisfied", "fault sets", "candidates", "elapsed"}, rows)

	engRows := make([][]string, 0, len(r.Engines))
	for _, e := range r.Engines {
		engRows = append(engRows, []string{
			e.Engine, fmt.Sprint(e.N), fmt.Sprint(e.Rounds), fmt.Sprintf("%.0f", e.RoundsPerSec),
		})
	}
	out += table([]string{"engine", "n", "rounds", "rounds/sec"}, engRows)
	if r.ParallelSpeedup > 0 {
		out += fmt.Sprintf("parallel sweep speedup: %.2fx (scenarios(8)×workers(%d) vs scenarios(8), %d CPUs)\n",
			r.ParallelSpeedup, r.SpeedupWorkers, runtime.NumCPU())
	}
	return out
}

// E10Scaling measures checker work on core networks (n = 3f+1 with growing
// f, plus growing n at f = 2) and engine throughput on CoreNetwork(16, 2).
func E10Scaling() (*E10Result, error) {
	res := &E10Result{}
	cases := []struct{ n, f int }{
		{4, 1}, {7, 2}, {10, 3}, {13, 4},
		{10, 2}, {14, 2}, {18, 2},
	}
	for _, tc := range cases {
		g, err := topology.CoreNetwork(tc.n, tc.f)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		chk, err := condition.Check(g, tc.f)
		if err != nil {
			return nil, err
		}
		res.Checker = append(res.Checker, E10CheckerRow{
			Graph: fmt.Sprintf("core(%d,%d)", tc.n, tc.f),
			N:     tc.n, F: tc.f,
			Satisfied:  chk.Satisfied,
			FaultSets:  chk.FaultSetsExamined,
			Candidates: chk.CandidatesExamined,
			Elapsed:    time.Since(start),
		})
	}

	g, err := topology.CoreNetwork(16, 2)
	if err != nil {
		return nil, err
	}
	const rounds = 2000
	engCfg := sim.Config{
		G: g, F: 2,
		Faulty:    faultySetOfSize(16, 2),
		Initial:   ramp(16),
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Hug{High: true},
		MaxRounds: rounds,
	}
	for _, eng := range []sim.Engine{sim.Sequential{}, sim.Matrix{}} {
		start := time.Now()
		tr, err := eng.Run(engCfg)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		res.Engines = append(res.Engines, E10EngineRow{
			Engine: eng.Name(), N: 16, Rounds: tr.Rounds,
			RoundsPerSec: float64(tr.Rounds) / elapsed.Seconds(),
		})
	}
	// The amortization the matrix representation buys: replaying the
	// recorded round structure over a batch of initial vectors. Throughput
	// is vector-rounds per second across the whole batch.
	const batch = 32
	extras := make([][]float64, batch)
	for b := range extras {
		v := ramp(16)
		for i := range v {
			v[i] += float64(b)
		}
		extras[b] = v
	}
	start := time.Now()
	tr, _, err := sim.Matrix{}.RunBatch(engCfg, extras)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	res.Engines = append(res.Engines, E10EngineRow{
		Engine: fmt.Sprintf("matrix-batch(%d)", batch), N: 16, Rounds: tr.Rounds,
		RoundsPerSec: float64(tr.Rounds) * batch / elapsed.Seconds(),
	})
	// The other batching dimension: the same point re-simulated under many
	// adversaries with the engine setup shared (sim.RunScenarios) — what the
	// matrix replay cannot vary, since a different adversary changes the
	// recorded round structure itself.
	scens := []sim.Scenario{
		{Adversary: adversary.Hug{High: true}},
		{Adversary: adversary.Hug{}},
		{Adversary: adversary.Extremes{Amplitude: 50}},
		{Adversary: adversary.Fixed{Value: 1e6}},
		{Adversary: adversary.Fixed{Value: -1e6}},
		{Adversary: &adversary.Insider{High: true}},
		{Adversary: &adversary.Insider{}},
		{Adversary: adversary.Conforming{}},
	}
	start = time.Now()
	traces, err := sim.RunScenarios(engCfg, scens)
	if err != nil {
		return nil, err
	}
	elapsed = time.Since(start)
	total := 0
	for _, t := range traces {
		total += t.Rounds
	}
	res.Engines = append(res.Engines, E10EngineRow{
		Engine: fmt.Sprintf("scenarios(%d)", len(scens)), N: 16, Rounds: total,
		RoundsPerSec: float64(total) / elapsed.Seconds(),
	})
	// The same sweep fanned across all cores, one private engine per worker
	// (sim.Sweep): bit-identical traces, near-linear scaling on multi-core
	// machines. Adversary instances are per-scenario, so nothing races.
	workers := runtime.GOMAXPROCS(0)
	start = time.Now()
	parRes, err := sim.Sweep(context.Background(), engCfg, scens, sim.SweepOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	elapsed = time.Since(start)
	total = 0
	for _, t := range parRes.Traces {
		total += t.Rounds
	}
	res.Engines = append(res.Engines, E10EngineRow{
		Engine: fmt.Sprintf("scenarios(%d)×workers(%d)", len(scens), workers), N: 16, Rounds: total,
		RoundsPerSec: float64(total) / elapsed.Seconds(),
	})
	// The multi-core scaling ratio the ROADMAP left open: only meaningful
	// when there is more than one CPU to fan the workers across.
	if runtime.NumCPU() > 1 {
		seq := res.Engines[len(res.Engines)-2]
		par := res.Engines[len(res.Engines)-1]
		if seq.RoundsPerSec > 0 {
			res.ParallelSpeedup = par.RoundsPerSec / seq.RoundsPerSec
			res.SpeedupWorkers = workers
		}
	}
	// Composing the two batching dimensions: each scenario's recorded round
	// programs replayed over the extra initial vectors (matrix engine).
	// Throughput counts primary plus replayed vector-rounds.
	start = time.Now()
	comboRes, err := sim.Sweep(context.Background(), engCfg, scens, sim.SweepOptions{
		Engine: sim.Matrix{}, Workers: workers, Extras: extras,
	})
	if err != nil {
		return nil, err
	}
	elapsed = time.Since(start)
	total = 0
	for _, t := range comboRes.Traces {
		total += t.Rounds
	}
	res.Engines = append(res.Engines, E10EngineRow{
		Engine: fmt.Sprintf("matrix-scenarios(%d)×batch(%d)", len(scens), batch), N: 16, Rounds: total,
		RoundsPerSec: float64(total) * (1 + batch) / elapsed.Seconds(),
	})
	return res, nil
}

// Passed reports whether all checker rows verified the expected
// satisfiability (core networks always satisfy) and every engine row
// (sequential, matrix, matrix-batch, scenarios, parallel scenarios,
// composed matrix-scenario batch) completed.
func (r *E10Result) Passed() bool {
	for _, c := range r.Checker {
		if !c.Satisfied {
			return false
		}
	}
	return len(r.Checker) > 0 && len(r.Engines) == 6
}
