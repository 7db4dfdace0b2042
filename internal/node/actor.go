package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/hashrand"
	"iabc/internal/quorum"
	"iabc/internal/transport"
)

// edgeQueueCap bounds each out-edge's send queue. Enqueues onto a full queue
// are dropped (counted in Result.OutDropped) — a later resend pass repairs
// the loss, so a slow or dead link cannot grow memory or block the actor.
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

// sender owns a node's outbound side: one bounded queue and one pump
// goroutine per out-edge, so a dead or partitioned destination delays only
// its own edge (no head-of-line blocking across links). Each pump retries
// failed sends with capped exponential backoff inside a per-message
// SendTimeout budget, then abandons — degrade, never deadlock.
type sender struct {
	id   int
	r    *runner
	outs []int
	qs   []chan transport.Msg
}

func newSender(id int, r *runner) *sender {
	outs := r.cfg.G.OutView(id)
	s := &sender{id: id, r: r, outs: outs, qs: make([]chan transport.Msg, len(outs))}
	for e := range s.qs {
		s.qs[e] = make(chan transport.Msg, edgeQueueCap)
	}
	return s
}

// start launches the per-edge pumps for one actor incarnation.
func (s *sender) start(ctx context.Context, done func()) {
	for e := range s.qs {
		e := e
		go func() {
			defer done()
			s.pumpEdge(ctx, e)
		}()
	}
}

// enqueue hands a message to edge e's pump without blocking.
func (s *sender) enqueue(e int, m transport.Msg) bool {
	select {
	case s.qs[e] <- m:
		return true
	default:
		s.r.outDropped.Add(1)
		return false
	}
}

func (s *sender) pumpEdge(ctx context.Context, e int) {
	to := s.outs[e]
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-s.qs[e]:
			s.sendOne(ctx, to, m)
		}
	}
}

// sendOne drives one message through the transport: retry on failure with
// exponential backoff (doubling from retryBackoff, capped at
// maxRetryBackoff) until the per-message SendTimeout budget is
// spent, then abandon. ErrLinkDown is the designed-for case — the link may
// heal mid-budget, which is how sends survive short partitions.
func (s *sender) sendOne(ctx context.Context, to int, m transport.Msg) {
	cfg := &s.r.cfg
	deadline := time.Now().Add(cfg.SendTimeout)
	backoff := retryBackoff
	for {
		sctx, cancel := context.WithDeadline(ctx, deadline)
		err := cfg.Transport.Send(sctx, s.id, to, m)
		cancel()
		if err == nil {
			return
		}
		if ctx.Err() != nil || errors.Is(err, transport.ErrClosed) {
			return
		}
		if !time.Now().Add(backoff).Before(deadline) {
			s.r.abandoned.Add(1)
			return
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// actor is one fault-free node: it owns the durable protocol state (the
// stepper's round and value, the history of broadcast values) and the
// stepper's volatile quorum inbox. The durable part survives crash windows —
// the supervisor re-runs the same actor, so a restart resumes from the last
// completed round, exactly the "resume from durable state and resend the
// current round" contract.
type actor struct {
	*sender
	id   int
	r    *runner
	recv <-chan transport.Delivery

	// step is the Section 7 iteration, shared with the async simulator. Its
	// round and value are durable; its inbox is reset across restarts.
	step *quorum.Stepper

	// Durable state.
	history []float64
	epoch   int
	started bool

	// Volatile state (reset across restarts).
	progressed bool
}

func newActor(id int, r *runner) *actor {
	cfg := &r.cfg
	deg := cfg.G.InDegree(id)
	q := quorum.Count(deg, cfg.F)
	if cfg.QuorumOverride != nil {
		q = cfg.QuorumOverride(id)
	}
	return &actor{
		sender:  newSender(id, r),
		id:      id,
		r:       r,
		recv:    cfg.Transport.Recv(id),
		step:    quorum.NewStepper(cfg.G.InView(id), q, cfg.F, cfg.MaxRounds, r.rule, cfg.Initial[id]),
		history: append(make([]float64, 0, cfg.MaxRounds+1), cfg.Initial[id]),
	}
}

// run executes one incarnation of the actor until ctx is done. After
// reaching MaxRounds the actor lingers in the same loop: it keeps draining
// deliveries and serving stall-triggered resends, because laggards may
// still need its history — the runner ends the run when every fault-free
// node is done.
func (a *actor) run(ctx context.Context) {
	if !a.started {
		a.started = true
		a.broadcast(a.step.Round(), 0)
	} else {
		// Restart: re-announce the current round under a fresh epoch so the
		// re-transmissions are distinct Seqs.
		a.broadcast(a.step.Round(), a.nextEpoch())
	}
	delay := a.r.cfg.ResendEvery
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case d := <-a.recv:
			a.r.deliveries.Add(1)
			if !a.onDelivery(ctx, d) {
				return
			}
			// Burst-drain the backlog before yielding to the timer: under a
			// resend flood most deliveries are stale dedups, and draining
			// them in a tight loop keeps the queue from backing up into the
			// transport.
			for drained := false; !drained; {
				select {
				case d := <-a.recv:
					a.r.deliveries.Add(1)
					if !a.onDelivery(ctx, d) {
						return
					}
				case <-ctx.Done():
					return
				default:
					drained = true
				}
			}
		case <-timer.C:
			if a.progressed {
				a.progressed = false
				delay = a.r.cfg.ResendEvery
			} else {
				// Back off while the stall persists: a fixed-rate resend
				// storm from every stalled node congests the very network
				// the resends are trying to repair (and on a loaded machine
				// the flood itself can hold the stall open). Progress resets
				// the backoff.
				a.resendHistory()
				if delay *= 2; delay > maxResendBackoffFactor*a.r.cfg.ResendEvery {
					delay = maxResendBackoffFactor * a.r.cfg.ResendEvery
				}
			}
			timer.Reset(delay)
		}
	}
}

// maxResendBackoffFactor caps the stall-resend backoff at this multiple of
// ResendEvery.
const maxResendBackoffFactor = 32

func (a *actor) nextEpoch() int {
	a.epoch++
	return a.epoch
}

// broadcast enqueues round k's value on every out-edge.
func (a *actor) broadcast(k, epoch int) {
	for e := range a.outs {
		m := transport.Msg{Round: k, Value: a.history[k], Seq: seqOf(k, epoch, e)}
		if a.enqueue(e, m) && epoch > 0 {
			a.r.resends.Add(1)
		}
	}
}

// deepResendEvery makes every k-th resend pass cover the full history;
// the passes between cover only the recent window, which keeps a long
// stall from flooding the network with thousands of old rounds per tick
// while still repairing arbitrarily deep laggards within k ticks.
const (
	deepResendEvery    = 8
	shallowResendDepth = 4
)

// resendHistory rebroadcasts completed rounds, newest first (the current
// round unblocks same-round peers; older rounds repair laggards). It fires
// only when a resend interval passed with no round progress. Safe by
// idempotence: round k's message is a pure function of the round-k state,
// and receivers dedup per (sender, round), so resends repair losses without
// ever altering a fault-free trajectory.
func (a *actor) resendHistory() {
	ep := a.nextEpoch()
	round := a.step.Round()
	lo := 0
	if ep%deepResendEvery != 0 && round > shallowResendDepth {
		lo = round - shallowResendDepth
	}
	for k := round; k >= lo; k-- {
		a.broadcast(k, ep)
	}
}

// onDelivery hands one message to the stepper — the same quorum discipline
// as the async engine, by the same code — and for each round it completes
// records the value, reports it to the runner, and broadcasts it. Stale
// resends, duplicates (first arrival won), and forged or misrouted traffic
// from non-in-neighbors fall out inside Deliver. Reports false only when the
// run must end (rule error or ctx done while reporting).
func (a *actor) onDelivery(ctx context.Context, d transport.Delivery) bool {
	live := true
	err := a.step.Deliver(d.From, d.Round, d.Value, func(round int, v float64) bool {
		a.history = append(a.history, v)
		a.progressed = true
		select {
		case a.r.updates <- updateMsg{node: a.id, round: round, value: v}:
		case <-ctx.Done():
			live = false
			return false
		}
		a.broadcast(round, 0)
		return true
	})
	if err != nil {
		a.r.fail(fmt.Errorf("node: node %d round %d: %w", a.id, a.step.Round(), err))
		return false
	}
	return live
}

// faultySink scatters an adversary emission onto a faulty sender's
// out-edges, mirroring the async engine's emitSink.
type faultySink struct {
	snd   *sender
	round int
}

// Send implements adversary.EdgeSink.
func (s *faultySink) Send(k int, value float64) {
	s.snd.enqueue(k, transport.Msg{Round: s.round, Value: value, Seq: seqOf(s.round, 0, k)})
}

// runFaulty drives one faulty node: every FaultyTick it asks the adversary
// for its next round batch against a fresh omniscient snapshot and enqueues
// the chosen values (each round emitted once — a faulty node owes nobody
// retransmissions; its silence is the fault the quorum tolerates). It also
// drains its delivery stream so honest senders never block on a faulty
// receiver's full queue.
func (r *runner) runFaulty(ctx context.Context, s int) {
	snd := newSender(s, r)
	var pumps int
	pumpDone := make(chan struct{}, len(snd.qs))
	snd.start(ctx, func() { pumpDone <- struct{}{} })
	pumps = len(snd.qs)
	defer func() {
		for i := 0; i < pumps; i++ {
			<-pumpDone
		}
	}()

	recv := r.cfg.Transport.Recv(s)
	tick := time.NewTicker(r.cfg.FaultyTick)
	defer tick.Stop()
	round := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-recv:
			// Discard: faulty behavior is the adversary's, not the protocol's.
		case <-tick.C:
			if round > r.cfg.MaxRounds {
				continue // emissions done; keep draining until the run ends
			}
			r.emitFaulty(snd, s, round)
			round++
		}
	}
}

// emitFaulty enqueues one faulty round batch. Edges the strategy skips get
// nothing: asynchronous silence.
func (r *runner) emitFaulty(snd *sender, s, round int) {
	r.adv.WriteMessages(r.view(round), s, &faultySink{snd: snd, round: round})
}

var _ adversary.EdgeSink = (*faultySink)(nil)
