package iabc

// This file is the facade over the live actor runtime: Cluster runs the
// Section 7 asynchronous iteration as goroutine-per-node actors over a
// pluggable Transport (internal/node over internal/transport), alongside
// the vocabulary a caller needs to drive it — the Transport interface, the
// in-process implementation, and the seeded chaos wrapper. This is the one
// goroutine-per-node runtime in the tree: the algorithm as genuine message
// passing. The deterministic Async engine behind Simulate remains its
// conformance oracle, and at f = 0 — the quorum then being the whole
// in-neighborhood — so does the synchronous Sequential engine, bit for bit;
// see docs/THEORY.md for the mapping.

import (
	"context"
	"fmt"

	"iabc/internal/async"
	"iabc/internal/node"
	"iabc/internal/transport"
)

// —— Transport vocabulary ——

// Transport moves round-tagged protocol messages between the nodes of a
// cluster: Send, which waits only while the destination's bounded queue is
// full (so a done ctx fails at once on a full queue), a per-node Recv
// stream, Close. Delivery semantics are deliberately weak (at-most-once,
// unordered, fallible) — the actor layer masks loss by idempotent
// retransmission.
type Transport = transport.Transport

// Msg is one round-tagged protocol message (Round, Value, per-transmission
// Seq).
type Msg = transport.Msg

// Delivery is a Msg as it arrives, stamped with the link it traveled.
type Delivery = transport.Delivery

// InprocTransport is the in-process Transport: one bounded channel per
// receiving node, with backpressure when a queue fills.
type InprocTransport = transport.Inproc

// NewInprocTransport returns an in-process transport for nodes [0, n) with
// the given per-node queue capacity (a default if ≤ 0).
func NewInprocTransport(n, queueCap int) *InprocTransport { return transport.NewInproc(n, queueCap) }

// ChaosTransport wraps any Transport with seeded, reproducible fault
// injection: drops, duplicates, reordering delays, link partitions with
// heal schedules, and node crash windows. Closing it closes the wrapped
// transport — a chaos wrapper owns what it wraps.
type ChaosTransport = transport.Chaos

// ChaosConfig parameterizes a ChaosTransport. Every probabilistic decision
// is a pure function of (Seed, link, Msg.Seq), so the same fault schedule
// replays on every run.
type ChaosConfig = transport.ChaosConfig

// ChaosStats counts what a chaos layer did to traffic.
type ChaosStats = transport.Stats

// LinkPartition cuts every link between two node sets in both directions
// for a wall-clock window (an Until ≤ 0 never heals).
type LinkPartition = transport.Partition

// NodeCrash takes one node off the network for a wall-clock window; under
// Cluster the node's actor is additionally stopped and restarted from its
// durable state when the window closes.
type NodeCrash = transport.Crash

// NewChaosTransport wraps inner with seeded fault injection.
func NewChaosTransport(inner Transport, cfg ChaosConfig) *ChaosTransport {
	return transport.NewChaos(inner, cfg)
}

// TCPTransport is the wire Transport: one long-lived TCP connection per
// peer address, whose one writer coalesces queued frames into one write,
// with lazy dial, reconnect under capped exponential backoff, and
// length-prefixed binary framing. Backpressure propagates end to end: full
// receive queues stop the reader, TCP flow control stops the sender. It
// hosts Recv streams only for its local nodes — the building block of a
// cross-process cluster (one instance per process, `iabc serve`).
type TCPTransport = transport.TCP

// TCPTransportConfig maps node ids to addresses and selects which of them
// this instance hosts. See the internal/transport documentation for the
// queue, backoff, and socket knobs.
type TCPTransportConfig = transport.TCPConfig

// NewTCPTransport returns a wire transport listening for its local nodes'
// traffic and dialing peers on demand.
func NewTCPTransport(cfg TCPTransportConfig) (*TCPTransport, error) { return transport.NewTCP(cfg) }

// ErrLinkDown is the retryable send error: the (from, to) link is inside an
// active partition or crash window and may heal.
var ErrLinkDown = transport.ErrLinkDown

// ErrTransportClosed is returned by sends after the transport closed.
var ErrTransportClosed = transport.ErrClosed

// JitterDelay is the lock-free deterministic DelayPolicy for the Async
// engine: delays are a seeded hash of (sender, receiver, message index),
// uniform in (0, B] — the concurrency-safe alternative to UniformDelay's
// shared generator.
type JitterDelay = async.Jitter

// —— The cluster runner ——

// ClusterResult records one cluster run: the stop verdict (Converged /
// Stalled), per-node round counters, the final state vector and fault-free
// ranges, and the robustness counters (deliveries, resends, sends the
// transport refused, sends dropped at a full queue, restarts) recording
// what the run survived.
type ClusterResult = node.Result

// Cluster runs the Section 7 asynchronous iteration as a live cluster:
// every fault-free node is a goroutine actor owning its state, round
// counter, and quorum inbox, talking to its peers only through a Transport;
// faulty nodes are driven by the configured adversary. Actors never block
// on a send: each goes straight into the transport's bounded queue for its
// destination, a send onto a full queue or one the transport refuses is
// counted, not retried, and idempotent stall-triggered retransmission
// repairs every loss. Actors survive configured crash windows by
// restarting from durable state — so the run degrades gracefully under
// chaos instead of deadlocking.
//
// Required options: WithInitial. Typical options: WithF, WithFaulty,
// WithAdversary, WithMaxRounds, WithEpsilon, WithChaos or WithTransport,
// WithResendEvery, WithStallAfter. WithObserver streams
// one EventNodeUpdate per fault-free state change, serialized. By default
// the run owns an in-process transport (chaos-wrapped under WithChaos and
// closed on return), each node's queue holding 64 messages for every
// in-edge of the graph's highest in-degree, plus 64; WithTransport
// substitutes a caller-owned one, which is left open.
//
// The run ends when the WithEpsilon stop fires, every fault-free node
// reaches WithMaxRounds, the WithStallAfter liveness cutoff fires, or ctx
// is canceled (the error wraps the cause). Timing knobs are wall-clock:
// unlike Simulate's engines this is a real concurrent system, so round
// counts are reproducible only in the loss-free fixed-quorum regime —
// final values, not schedules, are what the conformance tests pin.
func Cluster(ctx context.Context, g *Graph, opts ...Option) (*ClusterResult, error) {
	c, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if c.transport != nil && c.hasChaos {
		return nil, fmt.Errorf("iabc: WithTransport and WithChaos are mutually exclusive; wrap the transport with NewChaosTransport instead")
	}
	if c.transport != nil && c.tcp != nil {
		return nil, fmt.Errorf("iabc: WithTransport and WithTCPTransport are mutually exclusive")
	}
	faulty, err := c.faultySet(g.N())
	if err != nil {
		return nil, err
	}
	tr := c.transport
	if tr == nil {
		var owned Transport
		if c.tcp != nil {
			if len(c.tcp.Addrs) != g.N() {
				return nil, fmt.Errorf("iabc: WithTCPTransport has %d addresses for a %d-node graph",
					len(c.tcp.Addrs), g.N())
			}
			tcpCfg := *c.tcp
			if len(tcpCfg.Local) == 0 {
				tcpCfg.Local = c.localNodes
			}
			wire, err := NewTCPTransport(tcpCfg)
			if err != nil {
				return nil, err
			}
			owned = wire
		} else {
			// The queue is the actors' only send buffer: DefaultQueueCap
			// messages per in-edge, so every in-neighbour may run that far
			// ahead of a busy receiver, plus DefaultQueueCap of slack.
			maxIn := 0
			for i := range g.N() {
				maxIn = max(maxIn, g.InDegree(i))
			}
			owned = NewInprocTransport(g.N(), transport.DefaultQueueCap*(maxIn+1))
		}
		if c.hasChaos {
			owned = NewChaosTransport(owned, c.chaos)
		}
		defer owned.Close()
		tr = owned
	}
	cfg := node.Config{
		G:           g,
		F:           c.f,
		Faulty:      faulty,
		Initial:     c.initial,
		Rule:        c.rule,
		Adversary:   c.adversary,
		Transport:   tr,
		MaxRounds:   c.maxRounds,
		Epsilon:     c.epsilon,
		ResendEvery: c.resendEvery,
		StallAfter:  c.stallAfter,
		Crashes:     c.chaos.Crashes,
		Local:       c.localNodes,
		Linger:      c.linger,
	}
	if obs := c.observer; obs != nil {
		cfg.OnUpdate = func(nd, round int, value, rng float64) {
			obs(Event{Kind: EventNodeUpdate, Node: nd, Round: round, Value: value, Range: rng})
		}
	}
	return node.Run(ctx, cfg)
}
