// Package adversary implements Byzantine fault strategies matching the
// paper's failure model (Section 2.2): faulty nodes may send incorrect and
// mismatching values to different out-neighbors, may collude, and have
// complete knowledge of the state of every node and of the algorithm.
//
// A Strategy receives a RoundView — the omniscient global snapshot — and
// decides, per faulty sender, the value delivered on each outgoing edge.
// Returning no entry for a receiver models omission; the synchronous engine
// substitutes the sender's ghost state (indistinguishable, to the receiver,
// from a Byzantine node that chose to send that value), while the
// asynchronous engine delivers nothing.
package adversary

import (
	"fmt"
	"math"
	"math/rand"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// RoundView is the omniscient snapshot handed to strategies at the start of
// each iteration, before messages are exchanged.
type RoundView struct {
	// Round is the iteration about to execute (1-based).
	Round int
	// G is the communication graph.
	G *graph.Graph
	// F is the algorithm's fault-tolerance parameter.
	F int
	// Faulty is the actual fault set.
	Faulty nodeset.Set
	// States holds every node's current state v_j[t−1]. Entries for faulty
	// nodes are engine-maintained ghost states (what the node would hold if
	// it ran the algorithm); strategies are free to ignore them.
	States []float64
	// Lo and Hi are µ[t−1] and U[t−1]: the extremes over fault-free nodes.
	Lo, Hi float64
}

// Strategy decides what a faulty node transmits. Implementations must be
// deterministic given their configuration (seeded *rand.Rand for randomized
// ones) so simulations are reproducible.
type Strategy interface {
	// Name identifies the strategy in traces and benchmarks.
	Name() string
	// Messages returns the value sender transmits to each out-neighbor this
	// round, keyed by receiver. Omitted receivers get no message.
	Messages(view RoundView, sender int) map[int]float64
}

// EdgeSink receives the values an EdgeWriter scatters onto a faulty sender's
// outgoing edges. k indexes the sender's sorted out-neighbor list: Send(k, v)
// delivers v on the edge to view.G.OutView(sender)[k]. Edges not written
// behave exactly like receivers omitted from Messages (the synchronous
// engines substitute the ghost state; the asynchronous engine delivers
// nothing). Implementations are engine-owned flat buffers, so Send is O(1)
// and allocation-free.
type EdgeSink interface {
	Send(k int, value float64)
}

// EdgeWriter is the form of Strategy the engines drive: every engine
// normalises its configured strategy through Writer once per run and from
// then on calls only WriteMessages, scattering values straight onto its flat
// edge plane with no per-round map.
//
// Contract: WriteMessages must be observationally identical to Messages —
// for every view and sender, Send(k, v) is called exactly once for each
// entry (OutView(sender)[k] -> v) of the Messages map and for nothing else
// (call order along the out-edge list is ascending k). Randomized strategies
// must consume their rng stream identically on both paths. The built-ins
// meet it by construction — their Messages is collect over WriteMessages —
// and FuzzEdgeWriterEquivalence pins collect and mapWriter.
type EdgeWriter interface {
	Strategy
	WriteMessages(view RoundView, sender int, w EdgeSink)
}

// Writer normalises a strategy to the EdgeWriter seam: the identity on
// strategies that implement WriteMessages, and for any other strategy a
// wrapper that scatters its Messages map along the sender's out-edge list in
// ascending k — the EdgeWriter contract by construction, at the cost of the
// map. A nil strategy stays nil.
func Writer(s Strategy) EdgeWriter {
	if s == nil {
		return nil
	}
	if w, ok := s.(EdgeWriter); ok {
		return w
	}
	return mapWriter{s}
}

// mapWriter is Writer's wrapper for strategies without a WriteMessages.
type mapWriter struct{ Strategy }

func (m mapWriter) WriteMessages(view RoundView, sender int, w EdgeSink) {
	msgs := m.Messages(view, sender)
	for k, to := range view.G.OutView(sender) {
		if v, ok := msgs[to]; ok {
			w.Send(k, v)
		}
	}
}

// mapSink is the EdgeSink that turns a scatter back into the Messages map:
// the value sent on out-edge k is keyed by that edge's receiver.
type mapSink struct {
	outs []int
	msgs map[int]float64
}

func (s *mapSink) Send(k int, value float64) { s.msgs[s.outs[k]] = value }

// collect is Strategy.Messages derived from WriteMessages — mapWriter's
// inverse. Every built-in decides its values once, in WriteMessages, and its
// Messages is this call, so the two forms cannot drift apart.
func collect(w EdgeWriter, view RoundView, sender int) map[int]float64 {
	s := mapSink{outs: view.G.OutView(sender), msgs: make(map[int]float64)}
	w.WriteMessages(view, sender, &s)
	return s.msgs
}

// FaultFreeRange returns (µ, U): the extremes of states over the fault-free
// nodes — the Lo and Hi a RoundView carries.
func FaultFreeRange(states []float64, faultFree nodeset.Set) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	faultFree.ForEach(func(i int) bool {
		if states[i] < lo {
			lo = states[i]
		}
		if states[i] > hi {
			hi = states[i]
		}
		return true
	})
	return lo, hi
}

// Conforming behaves exactly like a fault-free node: it sends the ghost
// state on every outgoing edge. Useful as a control in experiments.
type Conforming struct{}

var _ EdgeWriter = Conforming{}

// Name implements Strategy.
func (Conforming) Name() string { return "conforming" }

// Messages sends the ghost state to all out-neighbors.
func (c Conforming) Messages(view RoundView, sender int) map[int]float64 {
	return collect(c, view, sender)
}

// WriteMessages implements EdgeWriter.
func (Conforming) WriteMessages(view RoundView, sender int, w EdgeSink) {
	v := view.States[sender]
	for k := range view.G.OutView(sender) {
		w.Send(k, v)
	}
}

// Fixed sends a constant value on every edge, every round — the classic
// "stubborn" fault. With Value outside the initial input range it doubles
// as a validity stress test: Algorithm 1 must trim it away.
type Fixed struct {
	Value float64
}

var _ EdgeWriter = Fixed{}

// Name implements Strategy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%g)", f.Value) }

// Messages sends Value to all out-neighbors.
func (f Fixed) Messages(view RoundView, sender int) map[int]float64 {
	return collect(f, view, sender)
}

// WriteMessages implements EdgeWriter.
func (f Fixed) WriteMessages(view RoundView, sender int, w EdgeSink) {
	for k := range view.G.OutView(sender) {
		w.Send(k, f.Value)
	}
}

// Silent omits every message — a crash-like fault. The synchronous engine
// substitutes the ghost state (see package comment); the asynchronous engine
// genuinely withholds, exercising the wait-for-|N⁻|−f quorum path.
type Silent struct{}

var _ EdgeWriter = Silent{}

// Name implements Strategy.
func (Silent) Name() string { return "silent" }

// Messages returns an empty map.
func (s Silent) Messages(view RoundView, sender int) map[int]float64 {
	return collect(s, view, sender)
}

// WriteMessages implements EdgeWriter: nothing is written.
func (Silent) WriteMessages(RoundView, int, EdgeSink) {}

// RandomNoise sends an independent uniform value in [Lo, Hi] on every edge,
// every round — maximal equivocation. Rng must be non-nil and is used only
// from the engine's coordinator, so no locking is needed.
type RandomNoise struct {
	Rng    *rand.Rand
	Lo, Hi float64
}

var _ EdgeWriter = (*RandomNoise)(nil)

// Name implements Strategy.
func (r *RandomNoise) Name() string { return fmt.Sprintf("noise[%g,%g]", r.Lo, r.Hi) }

// Messages draws one uniform sample per out-neighbor.
func (r *RandomNoise) Messages(view RoundView, sender int) map[int]float64 {
	return collect(r, view, sender)
}

// WriteMessages implements EdgeWriter: one Float64 per out-neighbor,
// ascending.
func (r *RandomNoise) WriteMessages(view RoundView, sender int, w EdgeSink) {
	for k := range view.G.OutView(sender) {
		w.Send(k, r.Lo+r.Rng.Float64()*(r.Hi-r.Lo))
	}
}

// Extremes splits receivers: even-ID receivers get U[t−1]+Amplitude,
// odd-ID receivers get µ[t−1]−Amplitude. It equivocates maximally in
// opposite directions, the generic version of the Theorem 1 attack.
type Extremes struct {
	Amplitude float64
}

var _ EdgeWriter = Extremes{}

// Name implements Strategy.
func (e Extremes) Name() string { return fmt.Sprintf("extremes(±%g)", e.Amplitude) }

// Messages sends Hi+Amplitude to even receivers, Lo−Amplitude to odd.
func (e Extremes) Messages(view RoundView, sender int) map[int]float64 {
	return collect(e, view, sender)
}

// WriteMessages implements EdgeWriter.
func (e Extremes) WriteMessages(view RoundView, sender int, w EdgeSink) {
	high, low := view.Hi+e.Amplitude, view.Lo-e.Amplitude
	for k, to := range view.G.OutView(sender) {
		if to%2 == 0 {
			w.Send(k, high)
		} else {
			w.Send(k, low)
		}
	}
}

// PartitionAttack is the adversary from the proof of Theorem 1. Given a
// violating partition (F = the faulty set running this strategy, L, R, C),
// it sends Low−Eps to nodes in L, High+Eps to nodes in R, and
// (Low+High)/2 to nodes in C. On a graph that violates Theorem 1, with L
// starting at Low and R at High, this freezes L at Low and R at High
// forever — the constructive impossibility that experiment E1 demonstrates.
type PartitionAttack struct {
	L, R nodeset.Set
	// Low and High are the input values m and M of the proof (Low < High).
	Low, High float64
	// Eps is how far outside [Low, High] the lies sit (m⁻ = Low−Eps,
	// M⁺ = High+Eps). Must be > 0.
	Eps float64
}

var _ EdgeWriter = PartitionAttack{}

// Name implements Strategy.
func (PartitionAttack) Name() string { return "partition-attack" }

// Messages sends m⁻ into L, M⁺ into R, and the midpoint into C.
func (p PartitionAttack) Messages(view RoundView, sender int) map[int]float64 {
	return collect(p, view, sender)
}

// WriteMessages implements EdgeWriter.
func (p PartitionAttack) WriteMessages(view RoundView, sender int, w EdgeSink) {
	for k, to := range view.G.OutView(sender) {
		switch {
		case p.L.Contains(to):
			w.Send(k, p.Low-p.Eps)
		case p.R.Contains(to):
			w.Send(k, p.High+p.Eps)
		default:
			w.Send(k, (p.Low+p.High)/2)
		}
	}
}

// Hug sends the current extreme of the fault-free range (U[t−1] if High,
// else µ[t−1]) on every edge. The value is always inside the valid range,
// so it is never distinguishable from a slow fault-free node, yet it drags
// the average toward the extreme every round — the canonical worst case for
// convergence rate (experiment E7 measures the slowdown).
type Hug struct {
	High bool
}

var _ EdgeWriter = Hug{}

// Name implements Strategy.
func (h Hug) Name() string {
	if h.High {
		return "hug-high"
	}
	return "hug-low"
}

// Messages sends the hugged extreme to all out-neighbors.
func (h Hug) Messages(view RoundView, sender int) map[int]float64 {
	return collect(h, view, sender)
}

// WriteMessages implements EdgeWriter.
func (h Hug) WriteMessages(view RoundView, sender int, w EdgeSink) {
	v := view.Lo
	if h.High {
		v = view.Hi
	}
	for k := range view.G.OutView(sender) {
		w.Send(k, v)
	}
}
