package node

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"iabc/internal/hashrand"
	"iabc/internal/quorum"
	"iabc/internal/transport"
)

// faultyTick is the wall-clock interval between a faulty actor's round
// batches.
const faultyTick = 2 * time.Millisecond

// sendNow is the context every protocol send passes. It is already done, so
// by the Transport contract a Send onto a full queue returns its error at
// once instead of waiting for room: an actor never blocks on a send.
var sendNow = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// seqOf derives a transmission identity for a Msg.Seq from the round, the
// epoch (0 for a round's first broadcast, a fresh per-actor epoch for each
// answer, ask pass and restart re-announcement), and the link: the out-edge
// index of a value, the asked node's id of an ask. Asks hash under their
// own key, so an ask and a value never share a Seq. Distinct epochs give
// retransmissions distinct Seqs, so a chaos layer that keys its drop
// decision on Seq re-draws per transmission — a message dropped once is not
// doomed to be dropped on every retry.
//
// The identity is a keyed 64-bit hash of the full tuple rather than a
// bit-packed word: packing masked the epoch to 16 bits, so a long stall
// (> 65536 epochs) aliased epoch e with e+65536 and the chaos layer re-drew
// the *same* fault decisions — exactly the doomed-forever pattern epochs
// exist to break. Seq only ever feeds keyed hashing and dedup is per
// (sender, round) at the receiver, so collision resistance, not
// invertibility, is the requirement.
func seqOf(ask bool, round, epoch, link int) uint64 {
	var domain int64
	if ask {
		domain = 1
	}
	return hashrand.Key(domain, uint64(round), uint64(epoch), uint64(link))
}

// outlet is a node's quorum.Outbox onto the runner: Send and Ask hand the
// message to the transport under the Seq derived from it, and Advanced
// commits a state change to the runner on the calling actor's goroutine. A
// fault-free actor and a faulty emitter both send through one; an emitter
// never asks or advances.
type outlet struct {
	id   int
	r    *runner
	outs []int
}

// Send implements quorum.Outbox. An accepted transmission on a non-zero
// epoch — an answer or a re-announcement — counts as repair traffic.
func (o *outlet) Send(k, round int, value float64, epoch int) {
	o.send(o.outs[k], transport.Msg{Round: round, Value: value, Seq: seqOf(false, round, epoch, k)}, epoch > 0)
}

// Ask implements quorum.Outbox: the ask travels from this node to from, the
// reverse of the edge from→id whose value it requests. Every accepted ask
// counts as repair traffic.
func (o *outlet) Ask(from, round, epoch int) {
	o.send(from, transport.Msg{Round: round, Ask: true, Seq: seqOf(true, round, epoch, from)}, true)
}

// send is one Transport.Send that never waits. A full destination queue
// counts as OutDropped and any other refusal (a cut link, a closed
// transport) as Abandoned; neither is retried, since the receiver's ask
// repairs both. A full queue's consumer is behind, so the sender then
// yields its processor once to let it drain. An accepted transmission
// marked repair counts in Result.Resends.
func (o *outlet) send(to int, m transport.Msg, repair bool) {
	switch err := o.r.cfg.Transport.Send(sendNow, o.id, to, m); {
	case err == nil:
		if repair {
			o.r.resends.Add(1)
		}
	case errors.Is(err, sendNow.Err()):
		o.r.outDropped.Add(1)
		runtime.Gosched()
	default:
		o.r.abandoned.Add(1)
	}
}

// Advanced implements quorum.Outbox: it commits the new state to the
// runner before the stepper broadcasts it, and never stops the advance —
// the actor's loop notices a done ctx itself.
func (o *outlet) Advanced(round int, v float64) bool {
	o.r.commit(o.id, round, v)
	return true
}

// actor drives one fault-free node's quorum.Stepper from a goroutine: the
// stepper holds the protocol and all of its state, durable and volatile,
// and the actor feeds it deliveries, asks and ticks. The supervisor re-runs
// the same actor after a crash window, so a restart resumes from the last
// completed round, exactly the "resume from durable state and re-announce
// the current round" contract.
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
	a.step = quorum.NewStepper(cfg.G.InView(id), a.outs, quorum.Count(cfg.G.InDegree(id), cfg.F),
		cfg.F, cfg.MaxRounds, r.rule, cfg.Initial[id], &a.outlet)
	return a
}

// run executes one incarnation of the actor until ctx is done, ticking the
// stepper every ResendEvery. After reaching MaxRounds the actor lingers in
// the same loop: it keeps draining deliveries and answering asks, because
// laggards may still need its history — the runner ends the run when every
// fault-free node is done.
func (a *actor) run(ctx context.Context) {
	a.step.Start()
	tick := time.NewTicker(a.r.cfg.ResendEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case d := <-a.recv:
			// Burst-drain the backlog before yielding to the ticker: most
			// of a backlog is stale or duplicate, and draining it in a
			// tight loop keeps the queue from backing up into the transport.
			// The receive-only non-blocking select locks only this node's
			// queue, not the Done channel the actors share: ctx is checked
			// once a batch.
			for more := true; more; {
				if !a.deliver(d) {
					return
				}
				select {
				case d = <-a.recv:
				default:
					more = false
				}
			}
			if ctx.Err() != nil {
				return
			}
		case <-tick.C:
			a.step.Timer()
		}
	}
}

// deliver hands one message to the stepper — an ask to Answer, a value to
// Deliver — and reports false when the incarnation must end on a rule
// error.
func (a *actor) deliver(d transport.Delivery) bool {
	a.r.deliveries.Add(1)
	if d.Ask {
		a.step.Answer(int(d.From), d.Round)
		return true
	}
	if err := a.step.Deliver(int(d.From), d.Round, d.Value); err != nil {
		a.r.fail(fmt.Errorf("node: node %d round %d: %w", a.id, a.step.Round(), err))
		return false
	}
	return true
}

// runFaulty drives one faulty node's quorum.Emitter: every faultyTick it
// emits the next round batch against a fresh omniscient snapshot. It also
// drains the node's delivery stream so honest sends to it find room.
func (r *runner) runFaulty(ctx context.Context, s int) {
	em := quorum.NewEmitter(s, r.cfg.G, r.cfg.F, r.faulty, r.faultFree, r.cfg.MaxRounds, r.adv,
		&outlet{id: s, r: r, outs: r.cfg.G.OutView(s)})
	states := make([]float64, r.cfg.G.N())
	recv := r.cfg.Transport.Recv(s)
	tick := time.NewTicker(faultyTick)
	defer tick.Stop()
	for more := true; ; {
		select {
		case <-ctx.Done():
			return
		case <-recv:
			// Discard it and the backlog behind it: faulty behavior is the
			// adversary's, not the protocol's. This goroutine is recv's one
			// consumer, so the len(recv) receives never block.
			for range len(recv) {
				<-recv
			}
		case <-tick.C:
			if more { // once emissions are done, keep draining until the run ends
				more = em.Emit(r.snapshot(states))
			}
		}
	}
}
