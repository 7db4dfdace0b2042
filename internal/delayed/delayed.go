// Package delayed defines the schedules of the partially asynchronous model
// the paper's Section 7 points at: the generalization "to the (partially)
// asynchronous model defined in Section 7 of [4] (Bertsekas–Tsitsiklis) that
// allows for message delay of up to B iterations", which the paper defers to
// a future technical report. Rounds remain synchronous, but the value node i
// uses from in-neighbor j at round t may be any of j's last B states:
// v_j[t−1−d] with 0 ≤ d ≤ B−1, chosen per (edge, round) by a StalePolicy.
//
// The model has no engine of its own: sim.Sequential runs it when
// sim.Config.Stale is set, keeping the last B state vectors in a history
// ring. Algorithm 1 runs unchanged on the stale values. Validity weakens from
// per-round monotonicity to an envelope property — U[t] never exceeds the
// maximum of U over the previous B rounds (sim.Trace.EnvelopeViolation) —
// while convergence still holds on Theorem 1-satisfying graphs; experiment
// E15 measures the slowdown as B grows.
package delayed

import "fmt"

// StalePolicy chooses, per edge and round, how stale the delivered value is:
// 0 means the freshest possible (the sender's previous-round state),
// Bound()−1 the stalest the model admits. Implementations must be
// deterministic given their configuration.
type StalePolicy interface {
	// Bound returns B ≥ 1: values may be up to B−1 rounds old.
	Bound() int
	// Staleness returns d ∈ [0, B−1] for the value from -> to uses at
	// round. The engine clamps d to the history that exists in the first
	// rounds.
	Staleness(from, to, round int) int
	// Name identifies the policy.
	Name() string
}

// MaxStale always serves the oldest value the bound admits — the
// adversarial schedule within the model. MaxStale{B: 1} is the synchronous
// model.
type MaxStale struct {
	B int
}

var _ StalePolicy = MaxStale{}

// Bound implements StalePolicy.
func (m MaxStale) Bound() int { return m.B }

// Staleness implements StalePolicy.
func (m MaxStale) Staleness(int, int, int) int { return m.B - 1 }

// Name implements StalePolicy.
func (m MaxStale) Name() string { return fmt.Sprintf("max-stale(B=%d)", m.B) }
