package iabc

// This file is the facade's surface: four context-aware, option-based entry
// points — Simulate, Sweep, Check, MaxF — unifying the engines behind
// internal/sim and internal/async with the exact Theorem 1 machinery of
// internal/condition. See doc.go for the package guide and the stability
// invariant, and api/iabc.txt for the frozen surface.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"iabc/internal/async"
	"iabc/internal/condition"
	"iabc/internal/sim"
)

// Outcome is Simulate's engine-independent result summary. The engine's record
// is in Trace (synchronous engines) or AsyncTrace (the Async engine);
// exactly one of the two is non-nil.
type Outcome struct {
	// Engine is the engine that produced the run.
	Engine Engine
	// Converged reports whether the epsilon stop fired.
	Converged bool
	// Rounds is the number of iterations executed — for the Async engine,
	// the smallest round counter among fault-free nodes.
	Rounds int
	// FinalRange is the fault-free range U−µ after the last step.
	FinalRange float64
	// Final is the state vector after the last step.
	Final []float64
	// Trace is the synchronous engines' full record; nil for Async.
	Trace *Trace
	// AsyncTrace is the Async engine's end-of-run record; nil otherwise.
	// It keeps no range series: WithObserver streams the fault-free range
	// after every state change (async.Config.OnRange) instead.
	AsyncTrace *AsyncTrace
}

// Simulate runs Algorithm 1 (or, with WithEngine(Async), the Section 7
// asynchronous iteration) on g and returns the engine-independent Outcome.
//
// Required options: WithInitial. Typical options: WithF, WithFaulty,
// WithAdversary or WithNamedAdversary, WithMaxRounds, WithEpsilon,
// WithEngine; the Async engine additionally requires WithDelays.
// WithObserver streams one EventRound per completed round (per fault-free
// state change under Async).
//
// ctx is honored by the Async engine at event-batch granularity; the
// synchronous engines run a single bounded simulation and complete it
// (cancel long scans at the Sweep/Check level, where work is divisible).
func Simulate(ctx context.Context, g *Graph, opts ...Option) (*Outcome, error) {
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if c.engine == Async {
		return simulateAsync(ctx, g, c)
	}
	engine, err := c.engine.simEngine()
	if err != nil {
		return nil, err
	}
	cfg, err := c.simConfig(g)
	if err != nil {
		return nil, err
	}
	if obs := c.observer; obs != nil {
		cfg.OnRound = func(round int, u, mu float64) {
			obs(Event{Kind: EventRound, Round: round, Range: u - mu})
		}
	}
	tr, err := engine.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Engine:     c.engine,
		Converged:  tr.Converged,
		Rounds:     tr.Rounds,
		FinalRange: tr.FinalRange(),
		Final:      tr.Final,
		Trace:      tr,
	}, nil
}

// simulateAsync is Simulate's Async-engine arm.
func simulateAsync(ctx context.Context, g *Graph, c *config) (*Outcome, error) {
	faulty, err := c.faultySet(g.N())
	if err != nil {
		return nil, err
	}
	cfg := async.Config{
		G:         g,
		F:         c.f,
		Faulty:    faulty,
		Initial:   c.initial,
		Rule:      c.rule,
		Adversary: c.adversary,
		Delays:    c.delays,
		MaxRounds: c.maxRounds,
		Epsilon:   c.epsilon,
	}
	if obs := c.observer; obs != nil {
		cfg.OnRange = func(t, rng float64) {
			obs(Event{Kind: EventRound, Time: t, Range: rng})
		}
	}
	tr, err := async.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	faultFree := NewSet(g.N()).Complement() // everyone, when no fault set is given
	if faulty.Cap() != 0 {
		faultFree = faulty.Complement()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	faultFree.ForEach(func(i int) bool {
		lo = math.Min(lo, tr.Final[i])
		hi = math.Max(hi, tr.Final[i])
		return true
	})
	return &Outcome{
		Engine:     Async,
		Converged:  tr.Converged,
		Rounds:     tr.MinRound(faultFree),
		FinalRange: hi - lo,
		Final:      tr.Final,
		AsyncTrace: tr,
	}, nil
}

// Sweep runs the base configuration once per scenario over pooled engine
// state, fanning independent scenarios across WithWorkers goroutines and —
// with the Matrix engine and WithExtras/WithBatch — SoA-replaying each
// scenario's recorded rounds over extra initial vectors. Scenarios are
// scheduled largest-estimated-cost-first; results are index-aligned with
// scenarios and bit-identical at any worker count.
//
// ctx cancels between scenarios: the error wraps ctx.Err() with the
// completed count and the result is nil (a sweep never returns partially).
// WithObserver streams one EventScenarioDone per completed scenario.
func Sweep(ctx context.Context, g *Graph, scenarios []Scenario, opts ...Option) (*SweepResult, error) {
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if (c.batch > 0 || len(c.extras) > 0) && !c.hasEngine {
		// The replay dimension only exists on the matrix engine; select it
		// rather than failing on the default. Sweep is the only entry point
		// that consumes extras, so the auto-selection lives here — Simulate
		// ignores WithExtras/WithBatch per the Option contract.
		c.engine = Matrix
	}
	engine, err := c.engine.simEngine()
	if err != nil {
		return nil, fmt.Errorf("iabc: sweeps run on the synchronous engines: %w", err)
	}
	base, err := c.simConfig(g)
	if err != nil {
		return nil, err
	}
	store, err := c.stateBackend()
	if err != nil {
		return nil, err
	}
	so := sim.SweepOptions{
		Engine:    engine,
		Workers:   c.workers,
		Extras:    c.batchExtras(c.initial),
		Store:     store,
		StateSalt: fmt.Sprintf("seed=%d", c.seed),
	}
	if obs := c.observer; obs != nil {
		var mu sync.Mutex
		so.OnScenario = func(i int, name string, tr *Trace) {
			mu.Lock()
			defer mu.Unlock()
			obs(Event{
				Kind:     EventScenarioDone,
				Scenario: i,
				Name:     name,
				Round:    tr.Rounds,
				Range:    tr.FinalRange(),
			})
		}
	}
	if c.distributed() {
		coord, stop, err := c.startCoordinator()
		if err != nil {
			return nil, err
		}
		defer stop()
		if !c.hasWorkers && c.workerPool > 0 {
			// In-flight scenario jobs default to the pool size, so every
			// local worker has one to run.
			so.Workers = c.workerPool
		}
		res, err := coord.Sweep(ctx, base, scenarios, so)
		if err != nil {
			return nil, err
		}
		emitCoordinatorEvent(c.observer, coord)
		return res, nil
	}
	return sim.Sweep(ctx, base, scenarios, so)
}

// Check decides the tight Theorem 1 condition for (g, f) exactly —
// synchronous threshold f+1, or the Section 7 threshold 2f+1 under
// WithAsyncCondition — fanning the fault-set scan across WithWorkers
// goroutines. The verdict and witness are identical at any worker count.
//
// ctx cancels at fault-set granularity: the error wraps ctx.Err() with the
// scan progress, and the returned CheckResult carries the work counters
// accumulated so far (its verdict is meaningless on error). WithObserver
// streams one EventCheckProgress per completed span of the scan: a span ends
// just past an orbit representative under the graph's automorphisms (one
// fault set on a graph without symmetry) or at the extent, so the events are
// the same at any worker count.
func Check(ctx context.Context, g *Graph, f int, opts ...Option) (CheckResult, error) {
	c, err := newConfig(opts)
	if err != nil {
		return CheckResult{}, err
	}
	threshold := condition.SyncThreshold(f)
	if c.async {
		threshold = condition.AsyncThreshold(f)
	}
	var progress condition.ProgressFunc
	if obs := c.observer; obs != nil {
		var mu sync.Mutex
		progress = func(p condition.Progress) {
			mu.Lock()
			defer mu.Unlock()
			obs(Event{Kind: EventCheckProgress, F: f, Done: p.FaultSetsDone, Total: p.FaultSetsTotal})
		}
	}
	store, err := c.stateBackend()
	if err != nil {
		return CheckResult{}, err
	}
	so := condition.ScanOptions{
		Workers:    c.workers,
		OnProgress: progress,
		Store:      store,
	}
	if c.distributed() {
		coord, stop, err := c.startCoordinator()
		if err != nil {
			return CheckResult{}, err
		}
		defer stop()
		res, err := coord.CheckScan(ctx, g, f, threshold, so)
		if err != nil {
			return res, err
		}
		emitCoordinatorEvent(c.observer, coord)
		return res, nil
	}
	return condition.CheckScan(ctx, g, f, threshold, so)
}

// MaxF returns the largest f for which g satisfies the synchronous
// Theorem 1 condition, or -1 if even f = 0 fails. See MaxFWithStats for
// the aggregated work counters.
func MaxF(ctx context.Context, g *Graph, opts ...Option) (int, error) {
	best, _, err := MaxFWithStats(ctx, g, opts...)
	return best, err
}

// MaxFWithStats is MaxF plus the aggregated checker work of the scan. On
// error — including cancellation, which is honored at fault-set
// granularity inside each check — it returns the best f decided so far and
// the stats up to the interruption. WithObserver streams EventCheckProgress
// during each check and one EventCheckDone per completed f, cached or not.
func MaxFWithStats(ctx context.Context, g *Graph, opts ...Option) (int, MaxFStats, error) {
	c, err := newConfig(opts)
	if err != nil {
		return -1, MaxFStats{}, err
	}
	store, err := c.stateBackend()
	if err != nil {
		return -1, MaxFStats{}, err
	}
	mo := condition.MaxFOptions{Workers: c.workers, Store: store}
	if obs := c.observer; obs != nil {
		var mu sync.Mutex
		emit := func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			obs(e)
		}
		mo.OnCheck = func(f int, res condition.Result) {
			emit(Event{Kind: EventCheckDone, F: f, Satisfied: res.Satisfied})
		}
		mo.OnProgress = func(f int, p condition.Progress) {
			emit(Event{Kind: EventCheckProgress, F: f, Done: p.FaultSetsDone, Total: p.FaultSetsTotal})
		}
	}
	if c.distributed() {
		coord, stop, err := c.startCoordinator()
		if err != nil {
			return -1, MaxFStats{}, err
		}
		defer stop()
		mo.CheckRunner = coord.CheckScan
		best, stats, err := condition.MaxFScan(ctx, g, mo)
		if err != nil {
			return best, stats, err
		}
		emitCoordinatorEvent(c.observer, coord)
		return best, stats, nil
	}
	return condition.MaxFScan(ctx, g, mo)
}
