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
// Send delivers m from node `from` to node `to`. It enqueues without
// waiting whenever the destination's bounded queue has room, whatever the
// state of ctx; only a full queue makes it wait (backpressure) for room,
// ctx or Close. So a caller that must never block passes an already-done
// ctx: a full queue then returns ctx.Err() at once. A nil return means the message was accepted, not that
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
	if err := enqueue(ctx, t.qs[to], Delivery{From: from, To: to, Msg: m}, t.closed, &t.done); err != nil {
		return err
	}
	t.sends.Add(1)
	return nil
}

// enqueue is the tail of Inproc.Send and TCP.Send: it puts d on q at once
// while q has room, whatever the state of ctx — one select over the
// enqueue and ctx.Done would pick between the two at random — and
// otherwise waits for room, ctx or closed. Winning the enqueue does not prove the transport
// was open: Close may run after Send's flag check, or race a send parked
// on a full queue against a concurrent drain. Re-checking done makes such
// a Send still report ErrClosed — Close's contract is that blocked Sends
// fail, not that they may sneak a message into a dead queue. (The
// enqueued copy is unreachable either way: queues are abandoned after
// Close.)
func enqueue(ctx context.Context, q chan<- Delivery, d Delivery, closed <-chan struct{}, done *atomic.Bool) error {
	select {
	case q <- d:
	default:
		select {
		case q <- d:
		case <-ctx.Done():
			return ctx.Err()
		case <-closed:
			return ErrClosed
		}
	}
	if done.Load() {
		return ErrClosed
	}
	return nil
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
