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
	// broadcast and a fresh per-node number on every answer and restart
	// re-announcement, so a runtime can tell retransmissions apart.
	Send(k, round int, value float64, epoch int)
	// Ask requests in-neighbor from's round-round value, on a fresh
	// per-node epoch. The request travels from the node to from, against
	// the edge the value travels; the asked node's runtime hands it to its
	// Stepper's Answer.
	Ask(from, round, epoch int)
	// Advanced reports that the node completed the update to round, now
	// holding value. Returning false stops the advance once the new round
	// is broadcast: it is for a runtime that is stopping the node.
	Advanced(round int, value float64) bool
}

// Stepper is one fault-free node's Section 7 actor: a state machine that
// reads no clock, does no I/O and allocates nothing per input. It owns the
// node's round counter and value, its inbox Ring, its out-neighbors, the
// history of values it has held, the epoch counter and the record of what
// it has asked for. Its inputs are Start, Deliver, Answer, Timer and Crash;
// its outputs go to an Outbox. The discrete-event simulator drives it from
// its event queue (Start at t = 0, Deliver per arrival, never Answer, Timer
// or Crash: its delivery is loss-free) and each live node actor from its
// goroutine (deliveries, asks, a wall-clock ticker, the crash supervisor),
// so the protocol and its repair policy exist once.
//
// Repair is receiver-driven. A node that lacks a round-r value asks the
// in-neighbor that owes it for exactly round r, and that in-neighbor
// answers from its history. Asks fire on three triggers, and one firing
// asks each empty slot of the current round at most once: a gap (a fresh
// value from p for a later round while p's current slot is empty), the
// pipeline (on an advance, every slot asked for the round just left whose
// new slot is empty) and a silent Timer tick (every empty slot). A silent
// tick therefore sends at most in-degree asks, and a laggard catches up at
// one round trip per round.
//
// Like its Ring, a Stepper belongs to exactly one goroutine.
type Stepper struct {
	ins       []int // sorted in-neighbor list
	outs      []int // sorted out-neighbor list: Send's edge k leads to outs[k]
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
	// the last Timer; asked[pos] is the last round asked of the in-neighbor
	// at pos (-1: none), and lastAsk the last round asked of anyone, so an
	// advance with no ask outstanding skips the pipeline scan.
	progressed bool
	asked      []int
	lastAsk    int
	inbox      *Ring
	scratch    core.Scratch
	buf        []core.ValueFrom
}

// NewStepper returns the actor of a node at round 0 holding initial. ins and
// outs are the node's sorted in- and out-neighbor lists, need the quorum it
// waits for (Count(len(ins), f) unless overridden), and rule the update
// applied with trimming parameter f until the round counter reaches
// maxRounds. Every output goes to out.
func NewStepper(ins, outs []int, need, f, maxRounds int, rule core.BufferedRule, initial float64, out Outbox) *Stepper {
	s := &Stepper{
		ins:       ins,
		outs:      outs,
		need:      need,
		f:         f,
		maxRounds: maxRounds,
		rule:      rule,
		out:       out,
		history:   append(make([]float64, 0, maxRounds+1), initial),
		asked:     make([]int, len(ins)),
		inbox:     NewRing(len(ins)),
		buf:       make([]core.ValueFrom, 0, len(ins)),
	}
	s.forgetAsks()
	return s
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
// A fresh value for a round after Round() from a sender whose current slot
// is empty and not yet asked for is a gap: the sender has moved on, so its
// current value was lost or is late, and Deliver asks for it at once. After
// an advance Deliver asks again, for the new round, every slot it had
// asked for the round it left and still lacks.
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
	left := s.Round()
	if round > left && s.asked[pos] != left && !s.inbox.Has(left, pos) {
		s.ask(pos, left, s.nextEpoch())
	}
	for r := left; r < s.maxRounds && s.inbox.Filled(r) >= s.need; r++ {
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
			return nil
		}
	}
	if s.lastAsk == left && s.Round() > left {
		s.askEmpty(func(pos int) bool { return s.asked[pos] == left })
	}
	return nil
}

// Answer serves in-neighbor to's ask for round: it sends history[round] on
// the edge to to, on a fresh epoch. Only a round the node has reached and
// an asker among its out-neighbors get an answer; any other ask — a round
// ahead of the node, a negative one, a node the edge does not lead to —
// emits nothing, so one ask costs at most one answer.
func (s *Stepper) Answer(to, round int) {
	if round < 0 || round > s.Round() {
		return
	}
	k := sort.SearchInts(s.outs, to)
	if k >= len(s.outs) || s.outs[k] != to {
		return
	}
	s.out.Send(k, round, s.history[round], s.nextEpoch())
}

// Timer is the stall detector's tick. After progress it does nothing. After
// silence it asks every empty slot of the current round, on one fresh
// epoch, which repairs lost asks, lost answers and senders not yet heard
// from. Asking is safe by idempotence: round k's answer is a pure function
// of the round-k state and receivers keep the first arrival per (sender,
// round), so repair never alters a fault-free trajectory.
func (s *Stepper) Timer() {
	if s.progressed {
		s.progressed = false
		return
	}
	s.askEmpty(func(int) bool { return true })
}

// Crash models a crash's loss of volatile state: the buffered arrivals, the
// stall detector and the record of asks are dropped, while the round,
// value, history and epoch survive for the next Start.
func (s *Stepper) Crash() {
	s.inbox.Reset(s.Round())
	s.progressed = false
	s.forgetAsks()
}

func (s *Stepper) nextEpoch() int {
	s.epoch++
	return s.epoch
}

func (s *Stepper) forgetAsks() {
	for pos := range s.asked {
		s.asked[pos] = -1
	}
	s.lastAsk = -1
}

// ask requests round from the in-neighbor at pos.
func (s *Stepper) ask(pos, round, epoch int) {
	s.asked[pos], s.lastAsk = round, round
	s.out.Ask(s.ins[pos], round, epoch)
}

// askEmpty asks, on one fresh epoch, every in-neighbor slot of the current
// round that is empty and selected by want. A node at maxRounds needs no
// value and asks nothing.
func (s *Stepper) askEmpty(want func(pos int) bool) {
	r := s.Round()
	if r >= s.maxRounds {
		return
	}
	epoch := 0
	for pos := range s.ins {
		if want(pos) && !s.inbox.Has(r, pos) {
			if epoch == 0 {
				epoch = s.nextEpoch()
			}
			s.ask(pos, r, epoch)
		}
	}
}

// broadcast sends round k's value on every out-edge.
func (s *Stepper) broadcast(k, epoch int) {
	v := s.history[k]
	for e := range s.outs {
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
