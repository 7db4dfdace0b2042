package adversary

import (
	"fmt"
	"sort"
)

// Insider is the sharpest in-range attack in the suite: for each receiver it
// inspects the receiver's own incoming values from fault-free nodes and
// sends the value that maximally drags the receiver's update toward an
// extreme while being guaranteed to survive trimming.
//
// Sending the global extreme (Hug) can be trimmed away when the receiver's
// neighborhood doesn't contain the extreme holder; Insider instead sends the
// (f+1)-th largest (or smallest) fault-free value in the receiver's own
// in-neighborhood — at most f values exceed it, so after the f-largest are
// discarded it always survives (possibly displaced by colluding copies of
// itself, which carry the same value). This exploits the full omniscience
// the failure model grants (Section 2.2).
//
// The EdgeWriter fast path lives on *Insider: it reuses an internal scratch
// buffer across calls and so must not be shared between goroutines. The
// value type remains a valid (allocating) Strategy.
type Insider struct {
	// High selects the drag direction.
	High bool

	// scratch backs the allocation-free WriteMessages path; it grows to the
	// largest honest in-neighborhood seen and is then reused.
	scratch []float64
}

var (
	_ Strategy   = Insider{}
	_ EdgeWriter = (*Insider)(nil)
)

// Name implements Strategy.
func (a Insider) Name() string {
	if a.High {
		return "insider-high"
	}
	return "insider-low"
}

// Messages implements Strategy on a private copy, so the value type shares
// no scratch with any other user.
func (a Insider) Messages(view RoundView, sender int) map[int]float64 {
	a.scratch = nil
	return collect(&a, view, sender)
}

// WriteMessages implements EdgeWriter with zero steady-state allocations.
func (a *Insider) WriteMessages(view RoundView, sender int, w EdgeSink) {
	for k, to := range view.G.OutView(sender) {
		var v float64
		v, a.scratch = a.valueFor(view, to, a.scratch[:0])
		w.Send(k, v)
	}
}

// valueFor computes the surviving-extreme value for one receiver, gathering
// honest in-neighbor states into buf (grown as needed and returned for
// reuse).
func (a Insider) valueFor(view RoundView, receiver int, buf []float64) (float64, []float64) {
	honest := buf
	for _, from := range view.G.InView(receiver) {
		if !view.Faulty.Contains(from) {
			honest = append(honest, view.States[from])
		}
	}
	if len(honest) == 0 {
		// No honest in-neighbors to hide among; fall back to the hull edge.
		if a.High {
			return view.Hi, honest
		}
		return view.Lo, honest
	}
	sort.Float64s(honest)
	k := view.F
	if k >= len(honest) {
		k = len(honest) - 1
	}
	if a.High {
		// (f+1)-th largest honest value in the receiver's neighborhood.
		return honest[len(honest)-1-k], honest
	}
	// (f+1)-th smallest.
	return honest[k], honest
}

// String aids debugging.
func (a Insider) String() string { return fmt.Sprintf("Insider{High:%v}", a.High) }
