package sim

import (
	"sort"

	"iabc/internal/adversary"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// edgePlane is the flat, edge-indexed message plane behind the engines'
// round loops. Every directed edge (s, i) gets a stable flat index: the
// in-edges of node i occupy the contiguous range [inOff[i], inOff[i+1]), in
// ascending sender order. One []float64 then carries the value delivered on
// every edge this round — no per-round maps, no per-round allocation.
//
// The geometry (offsets, sender lists, reverse index) depends only on the
// graph, so each engine's runner builds it once and Sweep replays it across
// scenarios, swapping the fault set with setFaulty. The plane is refilled in
// place every round.
type edgePlane struct {
	n int
	// inOff has length n+1; senders[inOff[i]:inOff[i+1]] are N-_i ascending.
	inOff   []int
	senders []int
	// values[e] is the value carried by in-edge e this round.
	values []float64
	// fromState[e], when tracking is enabled (Matrix engine), records
	// whether values[e] is the sender's (ghost) state rather than an
	// adversary-injected literal.
	fromState []bool
	// edgeOf[s][k] is the flat index of the edge s -> OutView(s)[k]: the
	// reverse index the adversary scatter uses.
	edgeOf [][]int
	// faulty lists the faulty node IDs ascending — hoisted out of the round
	// loop so the fault set is not re-walked per round.
	faulty []int
	// sink is the reusable EdgeSink handed to the adversary; it scatters
	// straight into values (and fromState) via edgeOf.
	sink planeSink
}

// planeSink adapts the plane to adversary.EdgeSink for one faulty sender at
// a time. It lives inside the plane so taking its address never allocates.
type planeSink struct {
	p      *edgePlane
	sender int
}

// Send implements adversary.EdgeSink: deliver value on the sender's k-th
// out-edge, marking it adversary-injected for source tracking.
func (s *planeSink) Send(k int, value float64) {
	e := s.p.edgeOf[s.sender][k]
	s.p.values[e] = value
	if s.p.fromState != nil {
		s.p.fromState[e] = false
	}
}

// newEdgePlane builds the plane for graph g with no faulty senders; a run
// sets its fault set with setFaulty. trackSource enables the fromState plane
// (only the Matrix engine needs it).
func newEdgePlane(g *graph.Graph, trackSource bool) *edgePlane {
	n := g.N()
	p := &edgePlane{
		n:      n,
		inOff:  make([]int, n+1),
		edgeOf: make([][]int, n),
	}
	p.sink.p = p
	for i := 0; i < n; i++ {
		p.inOff[i+1] = p.inOff[i] + g.InDegree(i)
	}
	m := p.inOff[n]
	p.senders = make([]int, m)
	p.values = make([]float64, m)
	if trackSource {
		p.fromState = make([]bool, m)
	}
	for i := 0; i < n; i++ {
		copy(p.senders[p.inOff[i]:p.inOff[i+1]], g.InView(i))
	}
	for s := 0; s < n; s++ {
		outs := g.OutView(s)
		idx := make([]int, len(outs))
		for k, to := range outs {
			// Position of s within the sorted in-list of `to`.
			pos := sort.SearchInts(g.InView(to), s)
			idx[k] = p.inOff[to] + pos
		}
		p.edgeOf[s] = idx
	}
	return p
}

// setFaulty re-materializes the ascending faulty-ID list, reusing the
// existing slice storage. Every run calls it, since each scenario of a sweep
// may swap the fault set.
func (p *edgePlane) setFaulty(faulty nodeset.Set) {
	p.faulty = p.faulty[:0]
	faulty.ForEach(func(i int) bool {
		p.faulty = append(p.faulty, i)
		return true
	})
}

// fill loads the fault-free default for the round: every in-edge carries the
// sender's (ghost) state.
func (p *edgePlane) fill(states []float64) {
	for e, s := range p.senders {
		p.values[e] = states[s]
	}
	if p.fromState != nil {
		for e := range p.fromState {
			p.fromState[e] = true
		}
	}
}

// applyAdversary scatters each faulty sender's transmissions onto the plane,
// in ascending sender order (preserving the deterministic rng stream of
// randomized strategies). adv is the run's strategy as normalised by
// adversary.Writer. Edges the strategy leaves unwritten keep the ghost
// default already in place, matching the synchronous substitution semantics
// (see package adversary).
func (p *edgePlane) applyAdversary(adv adversary.EdgeWriter, view adversary.RoundView) {
	for _, s := range p.faulty {
		p.sink.sender = s
		adv.WriteMessages(view, s, &p.sink)
	}
}
