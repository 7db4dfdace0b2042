package node

import (
	"context"
	"fmt"
	"time"

	"iabc/internal/hashrand"
	"iabc/internal/quorum"
	"iabc/internal/transport"
)

// edgeQueueCap is the outbox room per local in-edge of a destination:
// outbox[j] holds edgeQueueCap messages for each local sender with an edge
// to j. Enqueues onto a full outbox are dropped (counted in
// Result.OutDropped) — a later resend pass repairs the loss, so a slow or
// dead destination cannot grow memory or block an actor.
const edgeQueueCap = 64

// seqOf derives a transmission identity for a Msg.Seq from the round, the
// resend epoch (0 for a round's first broadcast, a fresh per-actor epoch for
// each history resend pass and restart re-announcement), and the out-edge
// index. Distinct epochs give retransmissions distinct Seqs, so a chaos
// layer that keys its drop decision on Seq re-draws per transmission — a
// message dropped once is not doomed to be dropped on every resend.
//
// The identity is a keyed 64-bit hash of the full triple rather than a
// bit-packed word: packing masked the epoch to 16 bits, so a long stall
// (> 65536 resend passes) aliased epoch e with e+65536 and the chaos layer
// re-drew the *same* fault decisions — exactly the doomed-forever pattern
// epochs exist to break. Seq only ever feeds keyed hashing and dedup is
// per (sender, round) at the receiver, so collision resistance, not
// invertibility, is the requirement.
func seqOf(round, epoch, edge int) uint64 {
	return hashrand.Key(0, uint64(round), uint64(epoch), uint64(edge))
}

// outlet is a node's quorum.Outbox onto the runner: Send enqueues on the
// destination's outbox under the Seq derived from (round, epoch, edge), and
// Advanced reports a state change, giving up once the incarnation's ctx is
// done. A fault-free actor and a faulty emitter both send through one; an
// emitter never advances, so its outlet has no ctx.
type outlet struct {
	id   int
	r    *runner
	outs []int
	ctx  context.Context
	// stopped records that Advanced gave up: the incarnation must end.
	stopped bool
}

// Send implements quorum.Outbox; a transmission on a non-zero epoch that
// reaches the outbox counts as a resend.
func (o *outlet) Send(k, round int, value float64, epoch int) {
	m := transport.Msg{Round: round, Value: value, Seq: seqOf(round, epoch, k)}
	if o.r.enqueue(o.id, o.outs[k], m) && epoch > 0 {
		o.r.resends.Add(1)
	}
}

// Advanced implements quorum.Outbox.
func (o *outlet) Advanced(round int, v float64) bool {
	select {
	case o.r.updates <- updateMsg{node: o.id, round: round, value: v}:
		return true
	case <-o.ctx.Done():
		o.stopped = true
		return false
	}
}

// actor drives one fault-free node's quorum.Stepper from a goroutine: the
// stepper holds the protocol and all of its state, durable and volatile,
// and the actor feeds it deliveries and timer ticks. The supervisor re-runs
// the same actor after a crash window, so a restart resumes from the last
// completed round, exactly the "resume from durable state and resend the
// current round" contract.
type actor struct {
	outlet
	recv <-chan transport.Delivery
	step *quorum.Stepper
}

func newActor(id int, r *runner) *actor {
	cfg := &r.cfg
	a := &actor{
		outlet: outlet{id: id, r: r, outs: cfg.G.OutView(id)},
		recv:   cfg.Transport.Recv(id),
	}
	a.step = quorum.NewStepper(cfg.G.InView(id), len(a.outs), quorum.Count(cfg.G.InDegree(id), cfg.F),
		cfg.F, cfg.MaxRounds, r.rule, cfg.Initial[id], &a.outlet)
	return a
}

// run executes one incarnation of the actor until ctx is done. After
// reaching MaxRounds the actor lingers in the same loop: it keeps draining
// deliveries and serving stall-triggered resends, because laggards may
// still need its history — the runner ends the run when every fault-free
// node is done.
func (a *actor) run(ctx context.Context) {
	a.ctx, a.stopped = ctx, false
	a.step.Start()
	timer := time.NewTimer(a.r.cfg.ResendEvery)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case d := <-a.recv:
			if !a.deliver(d) {
				return
			}
			// Burst-drain the backlog before yielding to the timer: under a
			// resend flood most deliveries are stale dedups, and draining
			// them in a tight loop keeps the queue from backing up into the
			// transport.
			for drained := false; !drained; {
				select {
				case d := <-a.recv:
					if !a.deliver(d) {
						return
					}
				case <-ctx.Done():
					return
				default:
					drained = true
				}
			}
		case <-timer.C:
			timer.Reset(time.Duration(a.step.Timer()) * a.r.cfg.ResendEvery)
		}
	}
}

// deliver hands one message to the stepper and reports false when the
// incarnation must end (a rule error, or ctx done while reporting).
func (a *actor) deliver(d transport.Delivery) bool {
	a.r.deliveries.Add(1)
	if err := a.step.Deliver(d.From, d.Round, d.Value); err != nil {
		a.r.fail(fmt.Errorf("node: node %d round %d: %w", a.id, a.step.Round(), err))
		return false
	}
	return !a.stopped
}

// runFaulty drives one faulty node's quorum.Emitter: every FaultyTick it
// emits the next round batch against a fresh omniscient snapshot. It also
// drains the node's delivery stream so honest senders never block on a
// faulty receiver's full queue.
func (r *runner) runFaulty(ctx context.Context, s int) {
	em := quorum.NewEmitter(s, r.cfg.G, r.cfg.F, r.faulty, r.faultFree, r.cfg.MaxRounds, r.adv,
		&outlet{id: s, r: r, outs: r.cfg.G.OutView(s)})
	states := make([]float64, r.cfg.G.N())
	recv := r.cfg.Transport.Recv(s)
	tick := time.NewTicker(r.cfg.FaultyTick)
	defer tick.Stop()
	for more := true; ; {
		select {
		case <-ctx.Done():
			return
		case <-recv:
			// Discard: faulty behavior is the adversary's, not the protocol's.
		case <-tick.C:
			if more { // once emissions are done, keep draining until the run ends
				more = em.Emit(r.snapshot(states))
			}
		}
	}
}
