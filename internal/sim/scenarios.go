package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"iabc/internal/adversary"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
)

// Scenario is one variation of a base Config in a batched sweep. Zero-value
// fields keep the base configuration, so a sweep that only varies the
// adversary sets nothing else.
type Scenario struct {
	// Name labels the scenario in results (defaults to the adversary name).
	Name string
	// Adversary overrides base.Adversary when non-nil.
	Adversary adversary.Strategy
	// Initial overrides base.Initial when non-nil (length must be n).
	Initial []float64
	// Faulty overrides base.Faulty when it has non-zero capacity: any set
	// built with nodeset.New(n) — including an empty one — is an override.
	// A zero-value Set keeps the base fault set unless HasFaulty is set.
	Faulty nodeset.Set
	// HasFaulty forces the Faulty override even when Faulty is a zero-value
	// set, so a scenario can reset the base to fault-free without having to
	// construct a sized empty set.
	HasFaulty bool
	// MaxRounds overrides base.MaxRounds when > 0, letting one sweep mix
	// short and long scenarios. Sweep schedules the costliest scenarios
	// first (see scheduleOrder), so uneven round budgets do not leave one
	// long scenario bounding the tail.
	MaxRounds int
}

// apply merges the scenario's overrides into a copy of base.
func (s *Scenario) apply(base Config) Config {
	cfg := base
	if s.Adversary != nil {
		cfg.Adversary = s.Adversary
	}
	if s.Initial != nil {
		cfg.Initial = s.Initial
	}
	if s.HasFaulty || s.Faulty.Cap() != 0 {
		cfg.Faulty = s.Faulty
	}
	if s.MaxRounds > 0 {
		cfg.MaxRounds = s.MaxRounds
	}
	return cfg
}

// SweepOptions configures Sweep.
type SweepOptions struct {
	// Engine selects the per-scenario engine; nil defaults to Sequential.
	// Each worker runs its scenarios on one pooled engine state.
	Engine Engine
	// Workers fans scenarios across goroutines, one private runner (and
	// message plane) each; scenarios are independent, so the sweep scales
	// with cores. Workers ≤ 0 selects GOMAXPROCS (matching
	// condition.CheckScan); 1 is the sequential sweep. Results are
	// bit-identical for any worker count provided scenarios do not share
	// mutable adversary state (see the Sweep doc comment).
	Workers int
	// Extras, when non-empty, composes the two batching dimensions, and is
	// the one way to batch initial vectors: each scenario's round programs
	// are streamed, as they are recorded, through these K initial vectors
	// (structure-of-arrays, see Matrix), and the per-vector final states
	// are returned in SweepResult.Finals. Requires the Matrix engine. Every
	// vector must have length n; Sweep rejects any other before running.
	Extras [][]float64
	// OnScenario, when non-nil, is invoked once per completed scenario with
	// its index, resolved name, and trace — streaming per-scenario progress
	// before the sweep returns. A single-worker sweep delivers in index
	// order; with more than one effective worker it is called concurrently
	// from worker goroutines (scenarios complete out of order, and the
	// cost-first schedule reorders dispatch), so the callback must be safe
	// for concurrent use. It is not called for scenarios that fail or are
	// skipped after a failure or cancellation, nor for scenarios resumed
	// from a Store checkpoint (they did not run).
	OnScenario func(index int, name string, tr *Trace)
	// Store, when non-nil, makes the sweep durable: every completed
	// scenario's trace (and extras finals) is persisted bit-exactly, keyed
	// by the sweep's full derived identity, and a fresh Sweep over the same
	// store skips persisted scenarios outright — resuming a killed sweep
	// scenario-identically. Store errors abort the sweep. Records belong to
	// one exact identity (graph, engine, rule, scenario overrides, extras,
	// StateSalt); anything else re-runs.
	Store statestore.Backend
	// StateSalt folds caller-known identity into the sweep's state key that
	// the configs themselves cannot expose — typically the seed behind a
	// randomized adversary, whose Name() does not include it. Two sweeps
	// differing only in such hidden state must pass different salts or they
	// would resume from each other's checkpoints.
	StateSalt string
	// Runner, when non-nil, replaces the engine execution of each scenario:
	// instead of running cfg on a worker's pooled engine state, the sweep
	// calls Runner and stores whatever it returns. This is the seam the
	// distributed coordinator plugs into — scheduling, validation,
	// OnScenario, checkpointing, and result assembly stay in Sweep while
	// the simulation itself happens elsewhere. The Runner must return a
	// trace bit-identical to what the configured engine would produce
	// (returned finals must align with Extras), and must be safe for
	// concurrent use when Workers > 1.
	Runner func(ctx context.Context, index int, cfg *Config, extras [][]float64) (*Trace, [][]float64, error)
}

// SweepResult is the output of Sweep, index-aligned with the scenarios.
type SweepResult struct {
	// Traces[i] is scenario i's trace, bit-identical to what the selected
	// engine's Run would produce for the derived config.
	Traces []*Trace
	// Finals[i][x] is the final state vector of Extras[x] replayed through
	// scenario i's recorded round programs; nil when Extras was empty.
	Finals [][][]float64
	// ScenariosResumed counts scenarios served from a Store checkpoint
	// instead of running — provenance only; the traces are bit-identical
	// either way.
	ScenariosResumed int
}

// Sweep executes base once per scenario, amortizing the graph-dependent
// engine setup across the batch and, with Workers > 1, fanning the
// independent scenarios out across worker goroutines — each worker owns
// private pooled engine state, so no simulation state is shared.
//
// With the Matrix engine and non-empty Extras the two batching dimensions
// compose: each scenario's primary run records one round program per round
// and streams it, SoA, through the K extra initial vectors at a few flops
// per edge per vector before the next round rebuilds it.
//
// Scheduling: with more than one effective worker, scenarios are
// dispatched largest-estimated-cost-first (effective MaxRounds × edges ×
// replay width, see scheduleOrder), so a parallel sweep with uneven round
// budgets does not end with one long scenario running alone while the
// other workers idle. A single-worker sweep runs in natural index order —
// reordering buys nothing there, and OnScenario then fires in index
// order. Results are index-aligned with scenarios and bit-identical
// regardless of the execution order — scheduling changes only the tail
// latency.
//
// Cancellation: ctx is checked between scenarios (never inside the
// zero-allocation round loop), so cancellation returns within one
// scenario's simulation time. On cancellation the result is nil and the
// error wraps ctx.Err() together with how many scenarios had completed.
//
// Error contract: every derived config is validated up front (fail fast,
// nothing simulated); any scenario error — validation or mid-sweep — is
// wrapped with the scenario's index and name, and the returned SweepResult
// is nil: Sweep never hands back a partially filled sweep. With multiple
// failing scenarios, the error reported is the failure with the lowest
// index among those executed; a scenario failure takes precedence over a
// concurrent cancellation.
//
// Concurrency contract: with Workers > 1 different scenarios run on
// different goroutines, so scenarios must not share mutable adversary state
// (a *RandomNoise rng, an *Insider scratch) — give each scenario its own
// strategy instance. Stateless built-ins (Hug, Extremes, Fixed, Silent,
// Conforming, PartitionAttack) are safe to share.
func Sweep(ctx context.Context, base Config, scenarios []Scenario, opts SweepOptions) (*SweepResult, error) {
	if len(scenarios) == 0 {
		return &SweepResult{}, nil
	}
	engine := opts.Engine
	if engine == nil {
		engine = Sequential{}
	}
	cfgs, err := deriveConfigs(base, scenarios)
	if err != nil {
		return nil, err
	}
	if len(opts.Extras) > 0 {
		if _, ok := engine.(Matrix); !ok {
			return nil, fmt.Errorf("sim: Extras replay requires the Matrix engine, got %s", engine.Name())
		}
		n := base.G.N()
		for x, init := range opts.Extras {
			if len(init) != n {
				return nil, fmt.Errorf("sim: extra initial %d has length %d, want n = %d", x, len(init), n)
			}
		}
	}
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	if resolveWorkers(opts.Workers, len(scenarios)) > 1 {
		order = scheduleOrder(cfgs, len(opts.Extras))
	}
	return sweepOrdered(ctx, engine, scenarios, cfgs, opts, order)
}

// deriveConfigs merges each scenario into base and validates every derived
// config up front, so a bad scenario fails fast instead of after its
// predecessors' simulation time.
func deriveConfigs(base Config, scenarios []Scenario) ([]Config, error) {
	cfgs := make([]Config, len(scenarios))
	for i := range scenarios {
		cfgs[i] = scenarios[i].apply(base)
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: scenario %d (%s): %w", i, scenarioName(&scenarios[i]), err)
		}
	}
	return cfgs, nil
}

// resolveWorkers maps the Workers option to the goroutine count actually
// used: ≤ 0 selects GOMAXPROCS, and a sweep never runs more workers than
// it has scenarios.
func resolveWorkers(workers, scenarios int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > scenarios {
		workers = scenarios
	}
	return workers
}

// scheduleOrder returns the execution order for a sweep: scenario indexes
// sorted by descending estimated cost — effective MaxRounds × edges ×
// (1 + replay width) — with the stable original order breaking ties. Edges
// and replay width are shared by every scenario of a sweep today, so the
// ranking is driven by per-scenario MaxRounds overrides; the full product is
// kept so the estimate stays honest if the other factors ever vary.
func scheduleOrder(cfgs []Config, extras int) []int {
	order := make([]int, len(cfgs))
	cost := make([]int64, len(cfgs))
	for i := range cfgs {
		order[i] = i
		cost[i] = int64(cfgs[i].MaxRounds) * int64(cfgs[i].G.NumEdges()) * int64(1+extras)
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order
}

// sweepOrdered runs the validated configs in the given execution order.
// Result slots are keyed by the original scenario index, so any order
// yields the same SweepResult — the regression test pins this by replaying
// a sweep in natural order.
func sweepOrdered(ctx context.Context, engine Engine, scenarios []Scenario, cfgs []Config, opts SweepOptions, order []int) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &SweepResult{Traces: make([]*Trace, len(scenarios))}
	if len(opts.Extras) > 0 {
		res.Finals = make([][][]float64, len(scenarios))
	}
	// With a store, serve persisted scenarios before running anything: the
	// remaining order excludes them, so a resumed sweep only pays for the
	// scenarios the interrupted run had not settled.
	var ss *sweepState
	if opts.Store != nil {
		spec, err := describeSweep(engine.Name(), opts.StateSalt, cfgs, scenarios, opts.Extras)
		if err != nil {
			return nil, err
		}
		ss, err = newSweepState(opts.Store, spec)
		if err != nil {
			return nil, err
		}
		remaining := order[:0]
		for _, i := range order {
			tr, finals, err := ss.load(ctx, i)
			if err != nil {
				return nil, err
			}
			if tr == nil {
				remaining = append(remaining, i)
				continue
			}
			res.Traces[i] = tr
			if res.Finals != nil {
				res.Finals[i] = finals
			}
			res.ScenariosResumed++
		}
		order = remaining
	}
	var completed atomic.Int64
	// runOne executes scenario i on runner r (nil when opts.Runner executes
	// scenarios elsewhere); each index is written by exactly one worker, so
	// result slots need no locking.
	runOne := func(r runner, i int) error {
		var (
			tr     *Trace
			finals [][]float64
			err    error
		)
		if opts.Runner != nil {
			tr, finals, err = opts.Runner(ctx, i, &cfgs[i], opts.Extras)
		} else {
			tr, finals, err = r.run(&cfgs[i], opts.Extras)
		}
		if err != nil {
			return fmt.Errorf("sim: scenario %d (%s): %w", i, scenarioName(&scenarios[i]), err)
		}
		if ss != nil {
			if err := ss.save(ctx, i, tr, finals); err != nil {
				return fmt.Errorf("sim: scenario %d (%s): %w", i, scenarioName(&scenarios[i]), err)
			}
		}
		res.Traces[i] = tr
		if res.Finals != nil {
			res.Finals[i] = finals
		}
		completed.Add(1)
		if opts.OnScenario != nil {
			opts.OnScenario(i, scenarioName(&scenarios[i]), tr)
		}
		return nil
	}
	cancelErr := func() error {
		return fmt.Errorf("sim: sweep canceled after %d/%d scenarios: %w",
			completed.Load(), len(cfgs), context.Cause(ctx))
	}
	// newWorkerRunner builds the per-worker engine state — skipped entirely
	// when a Runner hook executes scenarios elsewhere.
	newWorkerRunner := func() runner {
		if opts.Runner != nil {
			return nil
		}
		return engine.newRunner(cfgs[0].G)
	}
	if len(order) == 0 {
		return res, nil
	}

	workers := resolveWorkers(opts.Workers, len(order))
	if workers == 1 {
		r := newWorkerRunner()
		for _, i := range order {
			if ctx.Err() != nil {
				return nil, cancelErr()
			}
			if err := runOne(r, i); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		canceled atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx = len(scenarios)
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			r := newWorkerRunner()
			for !failed.Load() && !canceled.Load() {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				i := order[k]
				if err := runOne(r, i); err != nil {
					mu.Lock()
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if canceled.Load() {
		return nil, cancelErr()
	}
	return res, nil
}

// scenarioName resolves the label used in errors and reports.
func scenarioName(s *Scenario) string {
	if s.Name != "" {
		return s.Name
	}
	if s.Adversary != nil {
		return s.Adversary.Name()
	}
	return "base"
}
