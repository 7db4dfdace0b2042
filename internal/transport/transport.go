// Package transport moves round-tagged protocol messages between node
// actors. It is the boundary ROADMAP item 1 calls for: the node runtime
// (internal/node) talks only to the Transport interface, so the same actor
// code runs over in-process channels today and a TCP/gRPC implementation
// tomorrow — and, crucially, over the Chaos wrapper, which injects seeded,
// reproducible network faults (drop, duplication, reordering delay, link
// partitions with heal schedules, node crash windows) between any inner
// transport and its callers.
//
// Delivery semantics are deliberately weak — at-most-once, unordered across
// links, fallible — because the Section 7 algorithm's robustness argument
// is exactly that it needs nothing stronger: the actor layer masks loss by
// idempotent retransmission and the quorum/inbox logic dedups.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Msg is one round-tagged protocol message: the sender's state Value after
// Round updates. Seq is a per-sender monotone counter distinguishing
// physical transmissions of the same logical (Round, Value) — resends and
// chaos-injected duplicates — so fault decisions can be keyed per
// transmission.
type Msg struct {
	Round int
	Value float64
	Seq   uint64
}

// Delivery is a Msg as it arrives: stamped with the link it traveled.
type Delivery struct {
	From, To int
	Msg
}

// Transport moves messages between the n nodes of a cluster.
//
// Send delivers m from node `from` to node `to`, blocking while the
// receiver's bounded queue is full (backpressure) until ctx is done or the
// transport closes. A nil return means the message was accepted, not that
// it will be processed — lossy wrappers may have silently dropped it.
// Send is safe for concurrent use.
//
// Recv returns node's delivery stream. The channel is owned by the
// transport and is NEVER closed — not while the transport is open and not
// by Close — so consumers must select against their own context rather
// than range over it. Each node's stream has exactly one consuming actor.
// Implementations serving only a subset of the cluster's nodes (the TCP
// transport) return nil for nodes they do not host.
//
// Close releases the transport: blocked and future Sends fail with
// ErrClosed, and any wrapper-internal goroutines (delayed deliveries) are
// waited out — after Close returns, the transport owns no goroutines.
// After Close, Recv streams are drained, not closed: deliveries that were
// already queued before Close remain readable, no new delivery is ever
// enqueued once Close has returned, and the channel stays open. This
// contract is normative — the conformance battery (transporttest.Run) pins
// it for every implementation.
type Transport interface {
	Send(ctx context.Context, from, to int, m Msg) error
	Recv(node int) <-chan Delivery
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// ErrLinkDown is returned by Send when the (from, to) link is cut — a
// partition window, or a crash window of either endpoint. It is not fatal:
// the link may heal, and the node runtime leaves the lost message to its
// stall-triggered resend rather than retrying the send.
var ErrLinkDown = errors.New("transport: link down")

// Inproc is the in-process Transport: one bounded channel per receiving
// node. Send blocks while the receiver's queue is full — backpressure, the
// property that distinguishes a transport from an unbounded event queue —
// until space frees, ctx is done, or the transport closes.
type Inproc struct {
	qs     []chan Delivery
	closed chan struct{}
	done   atomic.Bool
	sends  atomic.Int64
}

// DefaultQueueCap is the per-node queue bound used when NewInproc is given
// a non-positive capacity.
const DefaultQueueCap = 64

// NewInproc returns an in-process transport for nodes [0, n) with the given
// per-node queue capacity (DefaultQueueCap if ≤ 0).
func NewInproc(n, queueCap int) *Inproc {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	t := &Inproc{
		qs:     make([]chan Delivery, n),
		closed: make(chan struct{}),
	}
	for i := range t.qs {
		t.qs[i] = make(chan Delivery, queueCap)
	}
	return t
}

// N returns the number of nodes the transport serves.
func (t *Inproc) N() int { return len(t.qs) }

// Sends returns the number of messages accepted so far.
func (t *Inproc) Sends() int64 { return t.sends.Load() }

// Send implements Transport.
func (t *Inproc) Send(ctx context.Context, from, to int, m Msg) error {
	if from < 0 || from >= len(t.qs) || to < 0 || to >= len(t.qs) {
		return fmt.Errorf("transport: send %d -> %d outside [0,%d)", from, to, len(t.qs))
	}
	if t.done.Load() {
		return ErrClosed
	}
	select {
	case t.qs[to] <- Delivery{From: from, To: to, Msg: m}:
		// Winning the enqueue does not prove the transport was open: when a
		// send parked on a full queue is raced by Close and a concurrent
		// drain, both select cases are ready and the runtime picks one at
		// random. Re-check the flag so a Send that lost that race to Close
		// still reports ErrClosed — Close's contract is that blocked Sends
		// fail, not that they may sneak a message into a dead queue. (The
		// enqueued copy is unreachable either way: the queues are abandoned
		// after Close.)
		if t.done.Load() {
			return ErrClosed
		}
		t.sends.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.closed:
		return ErrClosed
	}
}

// Recv implements Transport.
func (t *Inproc) Recv(node int) <-chan Delivery { return t.qs[node] }

// Close implements Transport. It is idempotent.
func (t *Inproc) Close() error {
	if t.done.CompareAndSwap(false, true) {
		close(t.closed)
	}
	return nil
}
