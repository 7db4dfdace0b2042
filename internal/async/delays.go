// Package async implements the Section 7 extension: iterative approximate
// Byzantine consensus over asynchronous networks. Messages are tagged with
// the sender's round; a fault-free node advances from round t once it holds
// round-t values from |N⁻_i| − f distinct in-neighbors (it cannot wait for
// all — up to f faulty in-neighbors may stay silent forever), trims the f
// smallest and f largest, and averages the survivors with its own state.
//
// Because the received vector has |N⁻_i| − f entries, the update is exactly
// core.TrimmedMean with that shorter vector: the weight becomes
// 1/(|N⁻_i| − 3f + 1), well-defined precisely when |N⁻_i| ≥ 3f + 1 — the
// strengthened in-degree requirement the paper derives for asynchrony
// (with n > 5f and the 2f+1-threshold version of Theorem 1, see
// condition.CheckThreshold with condition.AsyncThreshold).
//
// The engine is a deterministic discrete-event simulator: a DelayPolicy
// assigns every message a delay in (0, B], modeling the partially
// asynchronous network of Bertsekas–Tsitsiklis cited by the paper;
// adversarial policies can starve chosen links up to the bound.
package async

import (
	"fmt"
	"math/rand"

	"iabc/internal/hashrand"
	"iabc/internal/nodeset"
)

// DelayPolicy assigns a delivery delay to each message. Implementations
// must be deterministic given their configuration; randomized policies take
// an explicit seeded *rand.Rand. Returned delays must be positive.
type DelayPolicy interface {
	// Delay returns the network delay for the round-tagged message sent
	// from -> to.
	Delay(from, to, round int) float64
	// Name identifies the policy in traces.
	Name() string
}

// Fixed delivers every message after exactly D time units — asynchrony
// degenerating to lockstep; useful as a control.
type Fixed struct {
	D float64
}

var _ DelayPolicy = Fixed{}

// Name implements DelayPolicy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%g)", f.D) }

// Delay implements DelayPolicy.
func (f Fixed) Delay(int, int, int) float64 { return f.D }

// Uniform draws each delay independently and uniformly from (0, B].
//
// Uniform is NOT safe for concurrent callers: successive Delay calls
// advance the shared *rand.Rand stream, which is stateful and unlocked.
// That is fine inside the discrete-event engine — Delay is only ever
// invoked from the single event-loop goroutine — but it must not be handed
// to code that evaluates delays from multiple goroutines (the node-actor
// cluster, a parallel sweep's per-worker chaos). For those, use Jitter:
// the same marginal distribution, computed statelessly per message.
type Uniform struct {
	B   float64
	Rng *rand.Rand
}

var _ DelayPolicy = (*Uniform)(nil)

// Name implements DelayPolicy.
func (u *Uniform) Name() string { return fmt.Sprintf("uniform(0,%g]", u.B) }

// Delay implements DelayPolicy.
func (u *Uniform) Delay(int, int, int) float64 {
	return u.B * (1 - u.Rng.Float64()) // in (0, B]
}

// Jitter draws each delay from (0, B] like Uniform, but statelessly: the
// delay of a message is a pure function of (Seed, from, to, round) through
// the hashrand keyed generator, so there is no rng stream to advance and no
// lock to take. Any number of goroutines may call Delay concurrently, and a
// run is reproducible from Seed alone regardless of evaluation order — the
// delay policy to use wherever concurrency makes Uniform's shared stream
// unsound.
type Jitter struct {
	B    float64
	Seed int64
}

var _ DelayPolicy = Jitter{}

// Name implements DelayPolicy.
func (j Jitter) Name() string { return fmt.Sprintf("jitter(0,%g;seed=%d)", j.B, j.Seed) }

// Delay implements DelayPolicy: B·(1 − u) in (0, B] with u the keyed
// uniform variate of (Seed, from, to, round).
func (j Jitter) Delay(from, to, round int) float64 {
	return j.B * (1 - hashrand.Unit(j.Seed, uint64(from), uint64(to), uint64(round)))
}

// Targeted is the adversarial scheduler: messages originating from nodes in
// Slow are delayed by the full bound B; all other messages arrive after
// Fast. It starves receivers of chosen senders' values for as long as the
// model permits — the worst case the |N⁻_i| − f quorum must absorb.
type Targeted struct {
	Slow nodeset.Set
	B    float64
	Fast float64
}

var _ DelayPolicy = Targeted{}

// Name implements DelayPolicy.
func (t Targeted) Name() string { return fmt.Sprintf("targeted(slow=%v)", t.Slow) }

// Delay implements DelayPolicy.
func (t Targeted) Delay(from, _, _ int) float64 {
	if t.Slow.Contains(from) {
		return t.B
	}
	return t.Fast
}
