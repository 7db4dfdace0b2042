// Package node promotes the Section 7 asynchronous iteration from a
// discrete-event simulation into genuinely independent node actors: one
// goroutine-per-node runtime in which every fault-free node owns its state,
// round counter, and quorum inbox, and talks to its peers exclusively
// through a transport.Transport. Faulty actors are driven by the existing
// adversary.Strategy vocabulary.
//
// The protocol is not written here. Each actor is a goroutine running a
// quorum.Stepper, the clock-free Section 7 state machine the async engine
// drives too: broadcast the round-0 state, wait until round-tagged values
// from |N⁻_i| − f distinct in-neighbors have arrived (quorum.Count — up to
// f faulty in-neighbors may stay silent forever), apply the update rule
// (core.TrimmedMean realizes Algorithm 1's trimming), advance, broadcast
// the new round. Faulty actors drive a quorum.Emitter, as the simulator's
// faulty nodes do. The simulator feeds its steppers deliveries only; an
// actor also feeds its stepper the ticks of a wall-clock timer and the
// crash supervisor's restarts. Together with how it sends they keep
// eventual delivery true on a real, faulty network:
//
//   - Idempotent retransmission. A stalled actor (no round progress for
//     ResendEvery) rebroadcasts its recent history, the whole of it every
//     few passes. Because the message for round k is a pure function of
//     the actor's round-k state, resends never change a receiver's
//     trajectory — they only repair losses. This turns chaos-layer drops
//     and healed partitions into mere delays, which is precisely the
//     regime the Part II convergence theorem covers.
//   - Non-blocking sends. Every protocol send is one Transport.Send on the
//     sending actor's goroutine, with an already-done context: the
//     transport's bounded queue for the destination is the one send queue,
//     and a full one fails at once instead of waiting. A full queue is
//     counted (Result.OutDropped), and so is a refused send (a cut link:
//     transport.ErrLinkDown; Result.Abandoned); neither is retried — the
//     resend pass recovers both, so a dead or backpressured destination
//     never deadlocks an actor or delays traffic to any other destination.
//   - Crash/restart. A supervisor stops an actor for each configured crash
//     window and restarts it from its durable (round, value, history)
//     state with a reset inbox; on restart the actor rebroadcasts its
//     current round and peer resends re-fill what the crash lost.
//
// The deterministic simulator remains the conformance oracle: under
// loss-free delivery and f = 0 (where the quorum is the full
// in-neighborhood and the result is arrival-order independent), a cluster
// must finish bit-identical to async.Run — pinned by the package tests.
package node

import (
	"errors"
	"fmt"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/quorum"
	"iabc/internal/transport"
)

// DefaultResendEvery is the stall-triggered retransmission interval applied
// by Config.withDefaults.
const DefaultResendEvery = 5 * time.Millisecond

// Config describes one cluster run.
type Config struct {
	// G is the communication graph.
	G *graph.Graph
	// F is the fault-tolerance parameter.
	F int
	// Faulty is the actual fault set (|Faulty| ≤ F for guarantees).
	Faulty nodeset.Set
	// Initial holds v_i[0], length G.N().
	Initial []float64
	// Rule is the update rule; core.TrimmedMean realizes the Section 7
	// algorithm when fed the |N⁻_i|−F quorum vector.
	Rule core.UpdateRule
	// Adversary decides faulty transmissions. May be nil iff Faulty is
	// empty. Strategies see runner-maintained omniscient snapshots, like
	// the simulator's RoundView — an in-process cluster grants the
	// adversary the full knowledge the failure model (Section 2.2) allows.
	Adversary adversary.Strategy
	// Transport carries every message. Required; the caller owns it (Run
	// does not close it) so one chaos wrapper can be inspected after the
	// run.
	Transport transport.Transport
	// MaxRounds caps every fault-free node's round counter.
	MaxRounds int
	// Epsilon, when > 0, ends the run once the fault-free range is ≤
	// Epsilon.
	Epsilon float64
	// ResendEvery is the initial stall-triggered retransmission interval:
	// an actor that made no round progress for this long rebroadcasts its
	// history, then backs off exponentially (doubling per silent interval,
	// capped at 32 times this value) until progress resumes (0 selects
	// DefaultResendEvery).
	ResendEvery time.Duration
	// StallAfter, when > 0, ends the run with Result.Stalled once no
	// fault-free state change has been observed for this long — the
	// liveness cutoff for runs under liveness-destroying partitions.
	StallAfter time.Duration
	// Crashes stops each listed node's actor for its window and restarts
	// it from durable state afterwards (a window that never closes leaves
	// the node down). Windows are measured from Run's start. Crashes of
	// faulty nodes are ignored — the adversary is not supervised.
	Crashes []transport.Crash
	// Local, when non-empty, restricts the actors this Run spawns to the
	// listed node ids — this process's share of a cross-process deployment
	// over a wire transport that Recv-hosts only those nodes. Remote nodes
	// still exist in G and Initial; they are simply driven by other
	// processes. With Local a strict subset, the stop conditions become
	// local: MaxRounds completion counts local fault-free nodes only, and
	// the Epsilon/OnUpdate range treats remote nodes as frozen at their
	// Initial values (conservative — it can only overestimate the true
	// range at f = 0), so cross-process runs should stop on MaxRounds and
	// judge convergence over the collected finals. Empty means all nodes.
	Local []int
	// Linger, when > 0, keeps local actors alive this long after the local
	// stop condition fires. Actors at MaxRounds still serve stall-triggered
	// history resends, so lingering is what lets remote laggards finish
	// when this process's nodes are already done; without it a finished
	// process's exit looks like a crash to the rest of the cluster.
	Linger time.Duration
	// OnUpdate, when non-nil, observes every fault-free state change:
	// node, its new round counter, its new value, and the fault-free range
	// after the change. Calls are serialized on the runner goroutine.
	OnUpdate func(node, round int, value, rng float64)
}

// withDefaults returns c with zero timing knobs replaced by the defaults.
func (c Config) withDefaults() Config {
	if c.ResendEvery <= 0 {
		c.ResendEvery = DefaultResendEvery
	}
	return c
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	in := adversary.Instance{G: c.G, F: c.F, Faulty: c.Faulty, Initial: c.Initial, Rule: c.Rule, Adversary: c.Adversary, MaxRounds: c.MaxRounds}
	if err := in.Validate(func(inDegree int) int { return quorum.Count(inDegree, c.F) }); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	if c.Transport == nil {
		return errors.New("node: nil transport")
	}
	n := c.G.N()
	for _, cr := range c.Crashes {
		if cr.Node < 0 || cr.Node >= n {
			return fmt.Errorf("node: crash of node %d outside [0,%d)", cr.Node, n)
		}
	}
	for _, i := range c.Local {
		if i < 0 || i >= n {
			return fmt.Errorf("node: local node %d outside [0,%d)", i, n)
		}
	}
	return nil
}

// Result records one cluster run. Unlike the simulator's trace there is no
// event history — per-update streaming goes through Config.OnUpdate — but
// the robustness counters record what the run survived.
type Result struct {
	// Converged reports whether the Epsilon stop fired.
	Converged bool
	// Stalled reports whether the StallAfter liveness cutoff fired before
	// convergence or MaxRounds.
	Stalled bool
	// Rounds[i] is node i's final round counter (0 for faulty nodes — the
	// cluster does not model faulty internal state).
	Rounds []int
	// Final is the final state vector (faulty entries are their initial
	// values).
	Final []float64
	// InitialRange and FinalRange are the fault-free ranges U−µ at start
	// and end.
	InitialRange, FinalRange float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Deliveries counts messages received by fault-free actors, including
	// duplicates and stale rounds.
	Deliveries int64
	// Updates counts fault-free state changes.
	Updates int64
	// Resends counts messages retransmitted by stall-triggered history
	// rebroadcasts.
	Resends int64
	// Abandoned counts sends the transport refused (a cut link, a closed
	// transport); they are not retried — the stall resend repairs them. A
	// TCP write that fails after Send queued the frame is not counted here.
	Abandoned int64
	// OutDropped counts messages dropped at a full destination queue: the
	// transport had no room, and an actor never waits for it.
	OutDropped int64
	// Restarts counts crash-supervisor actor restarts.
	Restarts int64
}

// MinRound returns the smallest round counter among fault-free nodes.
func (r *Result) MinRound(faultFree nodeset.Set) int { return quorum.MinRound(r.Rounds, faultFree) }
