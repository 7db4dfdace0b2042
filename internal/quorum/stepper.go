package quorum

import (
	"sort"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// Outbox receives what a Stepper or an Emitter produces. The runtime
// implements it: the discrete-event simulator schedules arrivals on its
// event queue, a live node enqueues transport messages.
type Outbox interface {
	// Send transmits (round, value) on the node's out-edge k, the edge to
	// its k-th out-neighbor in sorted order. epoch is 0 on a round's first
	// broadcast and a fresh per-node number on every resend pass and
	// restart re-announcement, so a runtime can tell retransmissions apart.
	Send(k, round int, value float64, epoch int)
	// Advanced reports that the node completed the update to round, now
	// holding value. Returning false stops the advance once the new round
	// is broadcast: it is for a runtime that is stopping the node.
	Advanced(round int, value float64) bool
}

// The stall policy Timer applies. Every deepResendEvery-th resend pass
// covers the whole history; the passes between cover only the current round
// and the shallowResendDepth before it, which keeps a long stall from
// flooding the network with thousands of old rounds per tick while still
// repairing arbitrarily deep laggards within deepResendEvery ticks. The
// backoff doubles per silent tick up to maxResendBackoffFactor.
const (
	deepResendEvery        = 8
	shallowResendDepth     = 4
	maxResendBackoffFactor = 32
)

// Stepper is one fault-free node's Section 7 actor: a state machine that
// reads no clock, does no I/O and allocates nothing per input. It owns the
// node's round counter and value, its inbox Ring, its out-degree, the
// history of values it has held, the resend epoch and the stall backoff.
// Its inputs are Start, Deliver, Timer and Crash; its outputs go to an
// Outbox. The discrete-event simulator drives it from its event queue
// (Start at t = 0, Deliver per arrival, never Timer or Crash) and each live
// node actor from its goroutine (deliveries, a wall-clock timer, the crash
// supervisor), so the protocol and its robustness policy exist once.
//
// Like its Ring, a Stepper belongs to exactly one goroutine.
type Stepper struct {
	ins       []int // sorted in-neighbor list
	outs      int   // out-degree: Send's edge indexes are [0, outs)
	need      int   // quorum: distinct round-t values required to advance
	f         int
	maxRounds int
	rule      core.BufferedRule
	out       Outbox

	// Durable state: a crash keeps it. history[k] is the value the node
	// held at round k, which every transmission of round k carries; the
	// node's round is len(history)-1.
	history []float64
	epoch   int // last epoch used
	started bool

	// Volatile state: a crash drops it. progressed records an update since
	// the last Timer; backoff is the next timer interval as a multiple of
	// the runtime's base period.
	progressed bool
	backoff    int
	inbox      *Ring
	scratch    core.Scratch
	buf        []core.ValueFrom
}

// NewStepper returns the actor of a node at round 0 holding initial. ins is
// the node's sorted in-neighbor list, outs its out-degree, need the quorum
// it waits for (Count(len(ins), f) unless overridden), and rule the update
// applied with trimming parameter f until the round counter reaches
// maxRounds. Every output goes to out.
func NewStepper(ins []int, outs, need, f, maxRounds int, rule core.BufferedRule, initial float64, out Outbox) *Stepper {
	return &Stepper{
		ins:       ins,
		outs:      outs,
		need:      need,
		f:         f,
		maxRounds: maxRounds,
		rule:      rule,
		out:       out,
		history:   append(make([]float64, 0, maxRounds+1), initial),
		backoff:   1,
		inbox:     NewRing(len(ins)),
		buf:       make([]core.ValueFrom, 0, len(ins)),
	}
}

// Round returns the node's round counter: the number of updates applied.
func (s *Stepper) Round() int { return len(s.history) - 1 }

// Value returns the node's current state v_i[Round()].
func (s *Stepper) Value() float64 { return s.history[len(s.history)-1] }

// Start begins an incarnation of the node. The first call broadcasts the
// current round on epoch 0. A call after a Crash re-announces it on a fresh
// epoch: peers may have lost it while the node was down, and its earlier
// transmissions may never have arrived.
func (s *Stepper) Start() {
	epoch := 0
	if s.started {
		epoch = s.nextEpoch()
	}
	s.started = true
	s.broadcast(s.Round(), epoch)
}

// Deliver ingests the round-tagged value from sender from, then applies
// every update the inbox now supports, reporting each to Advanced and then
// broadcasting it on every out-edge. Stale rounds, duplicates of a (sender,
// round) already seen, and senders outside the in-neighbor list produce
// nothing. Neither do rounds ≥ maxRounds: a round-t value is consumed only
// by the update t → t+1 and updates stop at maxRounds, so no such value is
// ever read — and the round tag is message content a faulty in-neighbor
// chooses, so accepting it would let one frame tagged 1<<40 grow the inbox
// until the process dies. With the check the inbox never spans more than
// maxRounds rounds. The node moves the moment a quorum fills, so an update
// usually sees exactly need values; a later round buffered while the node
// lagged can hold more, which the rule tolerates.
//
// A rule error is returned as is, with Round() still naming the round that
// failed.
func (s *Stepper) Deliver(from, round int, value float64) error {
	if round < s.Round() || round >= s.maxRounds {
		return nil
	}
	pos := sort.SearchInts(s.ins, from)
	if pos >= len(s.ins) || s.ins[pos] != from {
		return nil
	}
	if !s.inbox.Put(round, pos, value) {
		return nil
	}
	for r := s.Round(); r < s.maxRounds && s.inbox.Filled(r) >= s.need; r++ {
		// Slot positions are aligned with the sorted in-neighbor list, so
		// received comes out in ascending sender order with no sort.
		received := s.inbox.Gather(r, s.ins, s.buf[:0])
		v, err := s.rule.UpdateInto(&s.scratch, s.Value(), received, s.f)
		if err != nil {
			return err
		}
		s.inbox.Pop()
		s.history = append(s.history, v)
		s.progressed = true
		more := s.out.Advanced(r+1, v)
		s.broadcast(r+1, 0)
		if !more {
			break
		}
	}
	return nil
}

// Timer is the stall detector's tick; it returns the interval to the next
// tick as a multiple of the runtime's base period. After progress it resends
// nothing and the interval falls back to 1. After silence it resends recent
// rounds newest first on a fresh epoch — the current round unblocks peers
// in the same round, older rounds repair laggards — and doubles the
// interval. Resending is safe by idempotence: round k's message is a pure
// function of the round-k state and receivers keep the first arrival per
// (sender, round), so resends repair losses without altering a fault-free
// trajectory.
func (s *Stepper) Timer() int {
	if s.progressed {
		s.progressed = false
		s.backoff = 1
		return 1
	}
	epoch := s.nextEpoch()
	round := s.Round()
	lo := 0
	if epoch%deepResendEvery != 0 && round > shallowResendDepth {
		lo = round - shallowResendDepth
	}
	for k := round; k >= lo; k-- {
		s.broadcast(k, epoch)
	}
	s.backoff = min(2*s.backoff, maxResendBackoffFactor)
	return s.backoff
}

// Crash models a crash's loss of volatile state: the buffered arrivals and
// the stall detector are dropped, while the round, value, history and epoch
// survive for the next Start.
func (s *Stepper) Crash() {
	s.inbox.Reset(s.Round())
	s.progressed = false
	s.backoff = 1
}

func (s *Stepper) nextEpoch() int {
	s.epoch++
	return s.epoch
}

// broadcast sends round k's value on every out-edge.
func (s *Stepper) broadcast(k, epoch int) {
	v := s.history[k]
	for e := 0; e < s.outs; e++ {
		s.out.Send(e, k, v, epoch)
	}
}

// Emitter is a faulty node's counterpart of a Stepper: each Emit asks the
// adversary for the node's next round batch against an omniscient snapshot
// and scatters it onto the out-edges on epoch 0. Skipped edges get nothing
// (asynchronous silence), and no round is sent twice: a faulty node owes
// nobody a retransmission. When to emit is the runtime's choice.
type Emitter struct {
	id        int
	adv       adversary.EdgeWriter
	out       Outbox
	view      adversary.RoundView
	faultFree nodeset.Set
	maxRounds int
}

// NewEmitter returns the emitter of faulty node id in g, about to emit round
// 0. faulty is the run's fault set and faultFree its complement, and rounds
// 0 through maxRounds are emitted.
func NewEmitter(id int, g *graph.Graph, f int, faulty, faultFree nodeset.Set, maxRounds int, adv adversary.EdgeWriter, out Outbox) *Emitter {
	return &Emitter{
		id:        id,
		adv:       adv,
		out:       out,
		view:      adversary.RoundView{G: g, F: f, Faulty: faulty},
		faultFree: faultFree,
		maxRounds: maxRounds,
	}
}

// Emit sends the next round's batch against the state vector states, which
// the adversary reads during the call only, and reports whether rounds
// remain to emit.
func (e *Emitter) Emit(states []float64) bool {
	e.view.States = states
	e.view.Lo, e.view.Hi = adversary.FaultFreeRange(states, e.faultFree)
	e.adv.WriteMessages(e.view, e.id, e)
	e.view.Round++
	return e.view.Round <= e.maxRounds
}

// Send implements adversary.EdgeSink: the scatter onto out-edge k.
func (e *Emitter) Send(k int, value float64) { e.out.Send(k, e.view.Round, value, 0) }

// MinRound returns the smallest round counter among the fault-free nodes.
func MinRound(rounds []int, faultFree nodeset.Set) int {
	m := int(^uint(0) >> 1)
	faultFree.ForEach(func(i int) bool {
		m = min(m, rounds[i])
		return true
	})
	return m
}
