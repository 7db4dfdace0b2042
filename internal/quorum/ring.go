// Package quorum holds the Section 7 asynchronous iteration of one node as a
// clock-free state machine, driven by both the discrete-event simulator
// (internal/async) and the real node actors (internal/node): the Stepper
// actor that turns round-tagged arrivals into updates and broadcasts, asks
// its in-neighbors for exactly the values it is missing and answers their
// asks from its history; the Emitter that scatters a faulty node's
// adversarial batches; the inbox Ring the Stepper buffers arrivals in; and
// the |N⁻_i| − f quorum Count a node waits for before advancing a round.
package quorum

import "iabc/internal/core"

// Count returns |N⁻_i| − f: how many distinct round-t values a node with
// the given in-degree waits for before it can apply the round-t update.
// It cannot wait for more — up to f faulty in-neighbors may stay silent
// forever (Section 7).
func Count(inDegree, f int) int { return inDegree - f }

// Ring buffers round-tagged arrivals for one node without per-delivery
// map allocation. Conceptually it is inbox[round][sender] = value for rounds
// in a sliding window [base, base+slots): each round owns a flat slot of
// in-degree values aligned with the node's sorted in-neighbor list, plus
// presence flags (first arrival per (sender, round) wins — equivocating
// re-sends are dropped) and a fill count for the quorum test.
//
// The window advances one round at a time as the node's round counter moves
// and grows geometrically when a sender runs far ahead of the receiver, so
// steady-state delivery touches no allocator at all.
//
// A Ring is owned by exactly one consumer (the simulator's event loop, or
// one node actor's goroutine); it is not safe for concurrent use.
type Ring struct {
	deg     int
	base    int       // round number stored at ring position start
	start   int       // ring position of round base
	slots   int       // a power of two: 8, doubled by each grow
	vals    []float64 // slots × deg
	present []bool    // slots × deg
	count   []int     // per slot
}

// NewRing returns an empty ring for a node with the given in-degree.
func NewRing(deg int) *Ring {
	const initialSlots = 8
	return &Ring{
		deg:     deg,
		slots:   initialSlots,
		vals:    make([]float64, initialSlots*deg),
		present: make([]bool, initialSlots*deg),
		count:   make([]int, initialSlots),
	}
}

// Base returns the lowest round the ring currently stores — the owner's
// round counter, advanced by Pop.
func (ib *Ring) Base() int { return ib.base }

// slot maps a round number in [base, base+slots) to its ring position. The
// slot count is a power of two, so a mask does the modulo and the delivery
// path has no integer division.
func (ib *Ring) slot(round int) int {
	return (ib.start + (round - ib.base)) & (ib.slots - 1)
}

// grow re-lays the ring out with at least need slots.
func (ib *Ring) grow(need int) {
	newSlots := ib.slots * 2
	for newSlots < need {
		newSlots *= 2
	}
	vals := make([]float64, newSlots*ib.deg)
	present := make([]bool, newSlots*ib.deg)
	count := make([]int, newSlots)
	for r := 0; r < ib.slots; r++ {
		old := ib.slot(ib.base + r)
		copy(vals[r*ib.deg:(r+1)*ib.deg], ib.vals[old*ib.deg:(old+1)*ib.deg])
		copy(present[r*ib.deg:(r+1)*ib.deg], ib.present[old*ib.deg:(old+1)*ib.deg])
		count[r] = ib.count[old]
	}
	ib.vals, ib.present, ib.count = vals, present, count
	ib.slots, ib.start = newSlots, 0
}

// Put records an arrival for (round, pos) where pos is the sender's index in
// the node's sorted in-neighbor list. It reports whether the arrival was
// fresh (false = duplicate, dropped). round must be ≥ Base(), and the ring
// grows to hold round − Base() + 1 slots, so the caller bounds the window:
// the Stepper never passes a round at or beyond its maxRounds.
func (ib *Ring) Put(round, pos int, v float64) bool {
	if round-ib.base >= ib.slots {
		ib.grow(round - ib.base + 1)
	}
	off := ib.slot(round)*ib.deg + pos
	if ib.present[off] {
		return false
	}
	ib.present[off] = true
	ib.vals[off] = v
	ib.count[ib.slot(round)]++
	return true
}

// Filled returns how many distinct senders have delivered for round.
// Rounds outside the stored window report 0.
func (ib *Ring) Filled(round int) int {
	if round < ib.base || round-ib.base >= ib.slots {
		return 0
	}
	return ib.count[ib.slot(round)]
}

// Has reports whether the sender at pos has delivered for round. Rounds
// outside the stored window report false.
func (ib *Ring) Has(round, pos int) bool {
	if round < ib.base || round-ib.base >= ib.slots {
		return false
	}
	return ib.present[ib.slot(round)*ib.deg+pos]
}

// Gather appends the present values of round's slot to buf in ascending
// sender order (positions are aligned with the sorted in-neighbor list
// senders, so no sort is needed) and returns the extended slice. Rounds
// outside the stored window gather nothing — the same totality guard
// Filled has, so a round Filled reports empty can never gather another
// round's values through the modular slot mapping.
func (ib *Ring) Gather(round int, senders []int, buf []core.ValueFrom) []core.ValueFrom {
	if round < ib.base || round-ib.base >= ib.slots {
		return buf
	}
	s := ib.slot(round)
	for k := 0; k < ib.deg; k++ {
		if ib.present[s*ib.deg+k] {
			buf = append(buf, core.ValueFrom{From: senders[k], Value: ib.vals[s*ib.deg+k]})
		}
	}
	return buf
}

// Pop clears the slot of round Base() and advances the window by one round.
// Callers must have consumed the slot first.
func (ib *Ring) Pop() {
	s := ib.start
	for k := 0; k < ib.deg; k++ {
		ib.present[s*ib.deg+k] = false
	}
	ib.count[s] = 0
	ib.base++
	ib.start = (ib.start + 1) & (ib.slots - 1)
}

// Reset drops all buffered arrivals and rebases the window at round — the
// volatile-state loss of a node crash: the owner restarts from its durable
// (round, value) state with an empty inbox and asks its in-neighbors to
// re-fill the current round's slot.
func (ib *Ring) Reset(round int) {
	for i := range ib.present {
		ib.present[i] = false
	}
	for i := range ib.count {
		ib.count[i] = 0
	}
	ib.base, ib.start = round, 0
}
