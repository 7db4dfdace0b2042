// Package delayed implements the partially asynchronous model the paper's
// Section 7 points at: the generalization "to the (partially) asynchronous
// model defined in Section 7 of [4] (Bertsekas–Tsitsiklis) that allows for
// message delay of up to B iterations", which the paper defers to a future
// technical report. Rounds remain synchronous, but the value node i uses
// from in-neighbor j at round t may be any of j's last B states:
// v_j[t−1−d] with 0 ≤ d ≤ B−1, chosen per (edge, round) by a StalePolicy.
//
// Algorithm 1 runs unchanged on the stale vectors. Validity weakens from
// per-round monotonicity to an envelope property — the running maximum of
// U over any window of B rounds is non-increasing (each new state is a
// convex combination of values from the last B rounds) — while convergence
// still holds on Theorem 1-satisfying graphs; experiment E15 measures the
// slowdown as B grows.
package delayed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// StalePolicy chooses, per edge and round, how stale the delivered value is:
// 0 means the freshest possible (the sender's previous-round state),
// B−1 the stalest the model admits. Implementations must be deterministic
// given their configuration.
type StalePolicy interface {
	// Staleness returns d ∈ [0, B−1] for the value from -> to uses at
	// round. The engine clamps d to the history actually available in the
	// first rounds.
	Staleness(from, to, round int) int
	// Name identifies the policy in traces.
	Name() string
}

// Fresh is the degenerate policy d = 0: the model collapses to the
// synchronous engine (a cross-check test asserts bit-identical traces).
type Fresh struct{}

var _ StalePolicy = Fresh{}

// Name implements StalePolicy.
func (Fresh) Name() string { return "fresh" }

// Staleness implements StalePolicy.
func (Fresh) Staleness(int, int, int) int { return 0 }

// MaxStale always serves the oldest value the bound admits — the
// adversarial schedule within the model.
type MaxStale struct {
	B int
}

var _ StalePolicy = MaxStale{}

// Name implements StalePolicy.
func (m MaxStale) Name() string { return fmt.Sprintf("max-stale(B=%d)", m.B) }

// Staleness implements StalePolicy.
func (m MaxStale) Staleness(int, int, int) int { return m.B - 1 }

// UniformStale draws d uniformly from [0, B−1] per edge per round.
type UniformStale struct {
	B   int
	Rng *rand.Rand
}

var _ StalePolicy = (*UniformStale)(nil)

// Name implements StalePolicy.
func (u *UniformStale) Name() string { return fmt.Sprintf("uniform-stale(B=%d)", u.B) }

// Staleness implements StalePolicy.
func (u *UniformStale) Staleness(int, int, int) int { return u.Rng.Intn(u.B) }

// Config describes one partially asynchronous run.
type Config struct {
	// G is the communication graph.
	G *graph.Graph
	// F is the fault-tolerance parameter.
	F int
	// Faulty is the actual fault set.
	Faulty nodeset.Set
	// Initial holds v_i[0], length G.N().
	Initial []float64
	// Rule is the update rule (core.TrimmedMean for Algorithm 1).
	Rule core.UpdateRule
	// Adversary decides faulty transmissions; Byzantine senders are not
	// bound by the staleness model (they may fabricate anything anyway).
	Adversary adversary.Strategy
	// B bounds the staleness: values may be up to B−1 rounds old. B ≥ 1.
	B int
	// Stale chooses per-edge staleness each round. Required.
	Stale StalePolicy
	// MaxRounds caps the iterations; Epsilon is the stop threshold.
	MaxRounds int
	Epsilon   float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	in := adversary.Instance{G: c.G, F: c.F, Faulty: c.Faulty, Initial: c.Initial, Rule: c.Rule, Adversary: c.Adversary, MaxRounds: c.MaxRounds}
	if err := in.Validate(func(inDegree int) int { return inDegree }); err != nil {
		return fmt.Errorf("delayed: %w", err)
	}
	if c.Stale == nil {
		return errors.New("delayed: nil stale policy")
	}
	if c.B < 1 {
		return fmt.Errorf("delayed: B must be ≥ 1, got %d", c.B)
	}
	return nil
}

func (c *Config) faulty() nodeset.Set { return adversary.FaultSet(c.G, c.Faulty) }

// Trace records a partially asynchronous run.
type Trace struct {
	// Rounds executed; Converged reports the Epsilon stop.
	Rounds    int
	Converged bool
	// U and Mu are per-round extremes over fault-free nodes (index 0 =
	// initial). Unlike the synchronous model they need not be monotone
	// round-to-round; see EnvelopeViolation.
	U, Mu []float64
	// Final is the last state vector.
	Final []float64
	// FaultFree is V − Faulty.
	FaultFree nodeset.Set
	// B echoes the staleness bound for envelope checks.
	B int
}

// Range returns U[t] − µ[t].
func (t *Trace) Range(round int) float64 { return t.U[round] - t.Mu[round] }

// FinalRange returns the last round's fault-free range.
func (t *Trace) FinalRange() float64 { return t.Range(t.Rounds) }

// EnvelopeViolation checks the weakened validity of the B-delayed model:
// U[t] must not exceed the maximum of U over the previous B rounds (+tol),
// and µ[t] must not fall below the corresponding minimum. It returns the
// first violating round, or 0 and false.
func (t *Trace) EnvelopeViolation(tol float64) (int, bool) {
	for r := 1; r <= t.Rounds; r++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for k := r - t.B; k < r; k++ {
			idx := k
			if idx < 0 {
				idx = 0
			}
			if t.U[idx] > hi {
				hi = t.U[idx]
			}
			if t.Mu[idx] < lo {
				lo = t.Mu[idx]
			}
		}
		if t.U[r] > hi+tol || t.Mu[r] < lo-tol {
			return r, true
		}
	}
	return 0, false
}

// Run executes the partially asynchronous simulation.
func Run(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.G.N()
	faulty := cfg.faulty()
	faultFree := faulty.Complement()

	// history[k] = state vector at round t−1−k (k = 0 freshest), ring of
	// depth B.
	history := make([][]float64, cfg.B)
	for k := range history {
		history[k] = make([]float64, n)
		copy(history[k], cfg.Initial)
	}
	current := make([]float64, n)
	copy(current, cfg.Initial)

	lo, hi := adversary.FaultFreeRange(current, faultFree)
	tr := &Trace{
		U:         []float64{hi},
		Mu:        []float64{lo},
		FaultFree: faultFree.Clone(),
		B:         cfg.B,
	}
	if cfg.Epsilon > 0 && hi-lo <= cfg.Epsilon {
		tr.Converged = true
	}

	next := make([]float64, n)
	recv := make([][]core.ValueFrom, n)
	for i := 0; i < n; i++ {
		recv[i] = make([]core.ValueFrom, cfg.G.InDegree(i))
	}

	for round := 1; round <= cfg.MaxRounds && !tr.Converged; round++ {
		var msgs map[int]map[int]float64
		if cfg.Adversary != nil {
			view := adversary.RoundView{
				Round: round, G: cfg.G, F: cfg.F, Faulty: faulty,
				States: current, Lo: tr.Mu[round-1], Hi: tr.U[round-1],
			}
			msgs = make(map[int]map[int]float64)
			faulty.ForEach(func(s int) bool {
				msgs[s] = cfg.Adversary.Messages(view, s)
				return true
			})
		}
		maxDepth := round - 1 // rounds of history that actually exist
		if maxDepth > cfg.B-1 {
			maxDepth = cfg.B - 1
		}
		for i := 0; i < n; i++ {
			buf := recv[i]
			for k, from := range cfg.G.InNeighbors(i) {
				v, decided := resolveByzantine(msgs, from, i, current)
				if !decided {
					d := cfg.Stale.Staleness(from, i, round)
					if d < 0 {
						d = 0
					}
					if d > maxDepth {
						d = maxDepth
					}
					v = history[d][from]
				}
				buf[k] = core.ValueFrom{From: from, Value: v}
			}
			v, err := cfg.Rule.Update(current[i], buf, cfg.F)
			if err != nil {
				if faultFree.Contains(i) {
					return nil, err
				}
				v = current[i] // freeze undefined ghost updates
			}
			next[i] = v
		}

		// Advance to v[t] and rotate history so the invariant
		// history[k] == v[t−k] holds at the start of round t+1 (where the
		// staleness-d lookup reads history[d] = v[(t+1)−1−d]).
		current, next = next, current
		oldest := history[len(history)-1]
		for k := len(history) - 1; k >= 1; k-- {
			history[k] = history[k-1]
		}
		history[0] = oldest
		copy(history[0], current)

		lo, hi := adversary.FaultFreeRange(current, faultFree)
		tr.U = append(tr.U, hi)
		tr.Mu = append(tr.Mu, lo)
		tr.Rounds = round
		if cfg.Epsilon > 0 && hi-lo <= cfg.Epsilon {
			tr.Converged = true
		}
	}
	tr.Final = make([]float64, n)
	copy(tr.Final, current)
	return tr, nil
}

// resolveByzantine resolves a faulty sender's transmission: the adversary's
// chosen value, or — on omission — the sender's current ghost state,
// mirroring the synchronous engine. decided is false for fault-free
// senders, whose value comes from the staleness model instead.
func resolveByzantine(msgs map[int]map[int]float64, from, to int, current []float64) (v float64, decided bool) {
	m, isFaulty := msgs[from]
	if !isFaulty {
		return 0, false
	}
	if v, ok := m[to]; ok {
		return v, true
	}
	return current[from], true
}
