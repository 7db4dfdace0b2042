// Package sim executes the synchronous iterative algorithm of Section 2.3 on
// a directed graph: in every iteration each node transmits its state on all
// outgoing edges, receives one value per incoming edge, and applies its
// update rule Z_i. Faulty nodes' transmissions are overridden by an
// adversary.Strategy.
//
// Two engines share one semantics:
//
//   - Sequential: a single-goroutine reference implementation running on a
//     flat edge-indexed message plane, allocation-free in steady state —
//     used by benchmarks and exhaustive tests.
//   - Matrix: materializes each round as a row-stochastic transition (the
//     matrix representation of arXiv:1203.1888) and can replay the recorded
//     round structure over batches of initial vectors.
//
// Both are deterministic given identical configs and produce bit-identical
// traces; cross-check tests enforce this. Sweep is the one batch entry
// point: it runs a list of Scenario variations of a base Config over pooled
// per-worker engine state, and with the Matrix engine SweepOptions.Extras
// replays every scenario's round programs over extra initial vectors.
// Sequential also runs the bounded-staleness model (Config.Stale, see
// package delayed) over a ring of the last B state vectors; Matrix rejects
// it. The algorithm as genuine message passing — one goroutine per node — is
// internal/node, which at f = 0 reproduces these traces bit for bit.
package sim

import (
	"fmt"
	"math"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/delayed"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// Config describes one simulation run.
type Config struct {
	// G is the communication graph.
	G *graph.Graph
	// F is the algorithm's fault-tolerance parameter f (how many faults the
	// update rule trims against).
	F int
	// Faulty is the actual fault set. It may be empty, and may have fewer
	// than F members; validity/convergence guarantees require |Faulty| ≤ F.
	Faulty nodeset.Set
	// Initial holds v_i[0] for every node, length G.N(). Entries of faulty
	// nodes seed their ghost state.
	Initial []float64
	// Rule is the transition function Z_i, shared by all nodes.
	Rule core.UpdateRule
	// Adversary decides faulty transmissions. It may be nil iff Faulty is
	// empty (or when faulty nodes should behave correctly, use
	// adversary.Conforming explicitly for clarity).
	Adversary adversary.Strategy
	// Stale, when non-nil, runs the partially asynchronous model: a
	// fault-free sender j's value on edge j -> i at round t is v_j[t−1−d]
	// with d = Stale.Staleness(j, i, t), clamped to the rounds that exist.
	// Faulty senders are not bound by it. Sequential only.
	Stale delayed.StalePolicy
	// MaxRounds caps the number of iterations. Must be ≥ 1.
	MaxRounds int
	// Epsilon, when > 0, stops the run once U[t] − µ[t] ≤ Epsilon over
	// fault-free nodes.
	Epsilon float64
	// RecordStates retains the full per-round state matrix in the trace
	// (memory: (MaxRounds+1) × n floats). U[t] and µ[t] are always recorded.
	RecordStates bool
	// OnRound, when non-nil, is invoked after every recorded round with the
	// round number and the fault-free maximum U and minimum µ — round 0 is
	// the initial condition. It streams progress without waiting for (or
	// materializing) the trace; the engines call it synchronously from the
	// round loop, so it must be fast and must not retain the arguments'
	// backing state. It fires on primary runs only, not on matrix batch
	// replays.
	OnRound func(round int, u, mu float64)
}

// Validate checks the configuration and returns a descriptive error for the
// first problem found.
func (c *Config) Validate() error {
	in := adversary.Instance{G: c.G, F: c.F, Faulty: c.Faulty, Initial: c.Initial, Rule: c.Rule, Adversary: c.Adversary, MaxRounds: c.MaxRounds}
	if err := in.Validate(func(inDegree int) int { return inDegree }); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Stale != nil && c.Stale.Bound() < 1 {
		return fmt.Errorf("sim: staleness bound must be ≥ 1, got %d", c.Stale.Bound())
	}
	return nil
}

// Trace records a run. Index 0 of U/Mu/States is the initial condition;
// index t is the state after iteration t.
type Trace struct {
	// Rounds is the number of iterations executed.
	Rounds int
	// Converged reports whether the Epsilon stop condition fired.
	Converged bool
	// U[t] and Mu[t] are max and min over fault-free nodes after round t.
	U, Mu []float64
	// States, when recorded, is the full matrix: States[t][i] is node i's
	// state after round t. Faulty entries are ghost states (what the node
	// would hold had it followed the algorithm), not trustworthy values.
	States [][]float64
	// Final is the state vector after the last round.
	Final []float64
	// FaultFree is V − Faulty.
	FaultFree nodeset.Set
	// RuleName and AdversaryName echo the configuration for reports.
	RuleName, AdversaryName string
}

// Range returns U[t] − µ[t].
func (t *Trace) Range(round int) float64 { return t.U[round] - t.Mu[round] }

// FinalRange returns the fault-free range after the last executed round.
func (t *Trace) FinalRange() float64 { return t.Range(t.Rounds) }

// ValidityViolation scans for a violation of the validity condition (1):
// U[t] ≤ U[t−1] and µ[t] ≥ µ[t−1] for all t. It returns the first round at
// which it is violated beyond tol (use a small tolerance such as 1e-9 to
// absorb floating-point rounding in the weighted averages), or 0 and false
// if validity holds throughout.
func (t *Trace) ValidityViolation(tol float64) (round int, violated bool) {
	return t.EnvelopeViolation(1, tol)
}

// EnvelopeViolation checks validity in the form it keeps under staleness
// bound b (Config.Stale): U[t] must not exceed the maximum of U over the
// previous b rounds, and µ[t] must not fall below the corresponding minimum.
// b = 1 is ValidityViolation. It returns the first round violated beyond
// tol, or 0 and false.
func (t *Trace) EnvelopeViolation(b int, tol float64) (round int, violated bool) {
	for r := 1; r <= t.Rounds; r++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for k := max(r-b, 0); k < r; k++ {
			hi, lo = max(hi, t.U[k]), min(lo, t.Mu[k])
		}
		if t.U[r] > hi+tol || t.Mu[r] < lo-tol {
			return r, true
		}
	}
	return 0, false
}

// Engine runs a configured simulation to completion. Sequential and Matrix
// are its only implementations: the unexported newRunner seals it.
type Engine interface {
	// Run executes the simulation. The returned trace is independent of the
	// config (inputs are copied).
	Run(cfg Config) (*Trace, error)
	// Name identifies the engine.
	Name() string
	// newRunner builds the engine's pooled state for graph g: one per sweep
	// worker, reused across every scenario it runs.
	newRunner(g *graph.Graph) runner
}

// runner executes validated configs on g's pooled engine state (edge plane,
// receive buffers, program storage), so a sweep pays the graph-dependent
// setup once per worker. run returns the trace and, index-aligned with
// extras, each extra vector's final state under the Matrix replay (nil
// without extras). Every cfg must use the runner's graph.
type runner interface {
	run(cfg *Config, extras [][]float64) (*Trace, [][]float64, error)
}

// roundView builds the omniscient adversary snapshot for the coming round.
// faulty is the caller's pre-materialized fault set, hoisted out of the
// round loop so no set is rebuilt per round.
func roundView(cfg *Config, round int, states []float64, faultFree, faulty nodeset.Set) adversary.RoundView {
	lo, hi := adversary.FaultFreeRange(states, faultFree)
	return adversary.RoundView{
		Round:  round,
		G:      cfg.G,
		F:      cfg.F,
		Faulty: faulty,
		States: states,
		Lo:     lo,
		Hi:     hi,
	}
}

// names extracts the rule/adversary names for the trace.
func names(cfg *Config) (rule, adv string) {
	rule = cfg.Rule.Name()
	adv = "none"
	if cfg.Adversary != nil {
		adv = cfg.Adversary.Name()
	}
	return rule, adv
}
