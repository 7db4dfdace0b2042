package quorum

import (
	"sort"

	"iabc/internal/core"
)

// Stepper is one fault-free node's Section 7 iteration: the node's round
// counter and value, its inbox Ring, and the discipline that turns
// round-tagged arrivals into updates — drop stale rounds, keep the first
// arrival per (sender, round), and while the current round holds a quorum
// gather it in ascending sender order, apply the rule, and move on. The
// discrete-event simulator (one Stepper per node on its event loop) and the
// live actors (one per goroutine) both drive this type, so the two cannot
// disagree on the protocol; what differs between them is only what a
// completed round triggers, which they pass to Deliver.
//
// Like its Ring, a Stepper belongs to exactly one goroutine.
type Stepper struct {
	ins       []int // sorted in-neighbor list
	need      int   // quorum: distinct round-t values required to advance
	f         int
	maxRounds int
	rule      core.BufferedRule

	round int
	value float64

	inbox   *Ring
	scratch core.Scratch
	buf     []core.ValueFrom
}

// NewStepper returns the stepper of a node at round 0 holding initial. ins
// is the node's sorted in-neighbor list, need the quorum it waits for
// (Count(len(ins), f) unless overridden), and rule the update applied with
// trimming parameter f until the round counter reaches maxRounds.
func NewStepper(ins []int, need, f, maxRounds int, rule core.BufferedRule, initial float64) *Stepper {
	return &Stepper{
		ins:       ins,
		need:      need,
		f:         f,
		maxRounds: maxRounds,
		rule:      rule,
		value:     initial,
		inbox:     NewRing(len(ins)),
		buf:       make([]core.ValueFrom, 0, len(ins)),
	}
}

// Round returns the node's round counter: the number of updates applied.
func (s *Stepper) Round() int { return s.round }

// Value returns the node's current state v_i[Round()].
func (s *Stepper) Value() float64 { return s.value }

// Reset models a crash's loss of volatile state: the buffered arrivals are
// dropped, the durable round and value stay.
func (s *Stepper) Reset() { s.inbox.Reset(s.round) }

// Deliver ingests the round-tagged value from sender from, then applies
// every update the inbox now supports. Stale rounds, duplicates of a
// (sender, round) already seen, and senders outside the in-neighbor list
// are ignored. So are rounds ≥ maxRounds: a round-t value is consumed only
// by the update t → t+1 and updates stop at maxRounds, so no such value is
// ever read — and the round tag is message content a faulty in-neighbor
// chooses, so accepting it would let one frame tagged 1<<40 grow the inbox
// until the process dies. With the check the inbox never spans more than
// maxRounds rounds. The node moves the moment a quorum fills, so an update
// usually sees exactly need values; a later round buffered while the node
// lagged can hold more, which the rule tolerates.
//
// advanced is called after each update with the new round counter and
// value; returning false stops the advance early (the stepper stays
// consistent and a later Deliver resumes it). A rule error is returned
// as is, with Round() still naming the round that failed.
func (s *Stepper) Deliver(from, round int, value float64, advanced func(round int, value float64) bool) error {
	if round < s.round || round >= s.maxRounds {
		return nil
	}
	pos := sort.SearchInts(s.ins, from)
	if pos >= len(s.ins) || s.ins[pos] != from {
		return nil
	}
	if !s.inbox.Put(round, pos, value) {
		return nil
	}
	for s.round < s.maxRounds && s.inbox.Filled(s.round) >= s.need {
		// Slot positions are aligned with the sorted in-neighbor list, so
		// received comes out in ascending sender order with no sort.
		received := s.inbox.Gather(s.round, s.ins, s.buf[:0])
		v, err := s.rule.UpdateInto(&s.scratch, s.value, received, s.f)
		if err != nil {
			return err
		}
		s.inbox.Pop()
		s.value = v
		s.round++
		if !advanced(s.round, v) {
			break
		}
	}
	return nil
}
