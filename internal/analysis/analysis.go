// Package analysis quantifies convergence: the weight parameter α of
// equation (3), the per-phase contraction bound of Lemma 5, the
// rounds-to-ε bound implied by Theorem 3's proof, and empirical contraction
// measurement on traces.
package analysis

import (
	"fmt"
	"math"

	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
)

// Alpha returns α = min_i a_i = min_i 1/(|N⁻_i| + 1 − 2f) (equation (3)).
// It errors if any node's in-degree is below 2f+1 (Corollary 3): the weight
// would be undefined or useless.
func Alpha(g *graph.Graph, f int) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("analysis: negative f %d", f)
	}
	alpha := 1.0
	for i := 0; i < g.N(); i++ {
		d := g.InDegree(i)
		if f > 0 && d < 2*f+1 {
			return 0, fmt.Errorf("analysis: node %d in-degree %d < 2f+1 = %d: %w", i, d, 2*f+1, core.ErrInsufficientValues)
		}
		if f == 0 && d < 1 {
			return 0, fmt.Errorf("analysis: node %d has no in-neighbors: %w", i, core.ErrInsufficientValues)
		}
		if a := core.Weight(d, f); a < alpha {
			alpha = a
		}
	}
	return alpha, nil
}

// AlphaAsync is Alpha for the Section 7 asynchronous algorithm, where the
// received vector has |N⁻_i| − f entries: α = min_i 1/(|N⁻_i| − 3f + 1).
// It errors if any in-degree is below 3f+1.
func AlphaAsync(g *graph.Graph, f int) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("analysis: negative f %d", f)
	}
	alpha := 1.0
	for i := 0; i < g.N(); i++ {
		d := g.InDegree(i)
		if d < 3*f+1 {
			return 0, fmt.Errorf("analysis: node %d in-degree %d < 3f+1 = %d: %w", i, d, 3*f+1, core.ErrInsufficientValues)
		}
		if a := core.Weight(d-f, f); a < alpha {
			alpha = a
		}
	}
	return alpha, nil
}

// WorstCaseSteps returns the paper's upper bound on the propagation length
// l of Definition 3: l ≤ n − f − 1 (a propagating set has at least f+1
// nodes and grows by one per step at minimum).
func WorstCaseSteps(n, f int) int { return n - f - 1 }

// ContractionBound returns the Lemma 5 factor (1 − αˡ/2): after the l
// rounds of one propagation phase, U − µ shrinks by at least this factor.
func ContractionBound(alpha float64, l int) float64 {
	return 1 - math.Pow(alpha, float64(l))/2
}

// RoundsToEpsilonBound returns the worst-case number of rounds for
// U[t] − µ[t] ≤ eps implied by Theorem 3's proof: phases of length
// l = n−f−1, each contracting by (1 − αˡ/2). Returns 0 if initialRange is
// already ≤ eps; errors on non-positive eps or initialRange < 0, or if the
// contraction factor is not < 1.
func RoundsToEpsilonBound(n, f int, alpha, initialRange, eps float64) (int, error) {
	if eps <= 0 {
		return 0, fmt.Errorf("analysis: eps must be > 0, got %g", eps)
	}
	if initialRange < 0 {
		return 0, fmt.Errorf("analysis: negative initial range %g", initialRange)
	}
	if initialRange <= eps {
		return 0, nil
	}
	l := WorstCaseSteps(n, f)
	if l < 1 {
		return 0, fmt.Errorf("analysis: degenerate worst-case step count %d (n=%d, f=%d)", l, n, f)
	}
	gamma := ContractionBound(alpha, l)
	if gamma >= 1 {
		return 0, fmt.Errorf("analysis: contraction factor %g not < 1 (alpha=%g, l=%d)", gamma, alpha, l)
	}
	phases := int(math.Ceil(math.Log(eps/initialRange) / math.Log(gamma)))
	if phases < 1 {
		phases = 1
	}
	return phases * l, nil
}

// MeasureContraction returns the worst observed l-round contraction factor
// over a trace: max over s of Range(s+l)/Range(s), ignoring windows whose
// starting range is below floor (to avoid numerical noise near convergence).
// Returns NaN if no window qualifies.
func MeasureContraction(t *sim.Trace, l int, floor float64) float64 {
	worst := math.NaN()
	for s := 0; s+l <= t.Rounds; s++ {
		r0 := t.Range(s)
		if r0 <= floor {
			continue
		}
		ratio := t.Range(s+l) / r0
		if math.IsNaN(worst) || ratio > worst {
			worst = ratio
		}
	}
	return worst
}

// EmpiricalRate fits a geometric convergence rate to a trace: the per-round
// factor (Range(T)/Range(0))^(1/T). Returns NaN for degenerate traces
// (no rounds, zero initial range, or zero final range — the latter means
// convergence outpaced float precision, an effective rate of 0).
func EmpiricalRate(t *sim.Trace) float64 {
	if t.Rounds == 0 || t.Range(0) <= 0 {
		return math.NaN()
	}
	final := t.Range(t.Rounds)
	if final <= 0 {
		return 0
	}
	return math.Pow(final/t.Range(0), 1/float64(t.Rounds))
}

// SplitAtMidpoint partitions the fault-free nodes by their state relative
// to the midpoint (U+µ)/2 — the A/B split used in the proof of Theorem 3.
// A holds nodes with state < midpoint, B the rest. Either may be empty if
// all states coincide.
func SplitAtMidpoint(states []float64, faultFree nodeset.Set) (a, b nodeset.Set) {
	lo, hi := math.Inf(1), math.Inf(-1)
	faultFree.ForEach(func(i int) bool {
		if states[i] < lo {
			lo = states[i]
		}
		if states[i] > hi {
			hi = states[i]
		}
		return true
	})
	mid := (lo + hi) / 2
	a = nodeset.New(faultFree.Cap())
	b = nodeset.New(faultFree.Cap())
	faultFree.ForEach(func(i int) bool {
		if states[i] < mid {
			a.Add(i)
		} else {
			b.Add(i)
		}
		return true
	})
	return a, b
}
