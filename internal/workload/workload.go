// Package workload generates initial-value vectors (the inputs v_i[0] of
// Section 2.3) for simulations, experiments, and benchmarks. Each generator
// is deterministic given its arguments; randomized ones take an explicit
// seeded *rand.Rand.
//
// The shapes matter for convergence studies: Ramp is the generic
// disagreement workload; Bimodal is the worst case driving Theorem 3's
// analysis (two camps at the extremes — exactly the A/B split of the proof).
package workload

import (
	"fmt"
	"math/rand"
)

// Ramp returns 0, 1, ..., n-1: uniform disagreement, unit steps.
func Ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// Constant returns n copies of v: already-converged inputs.
func Constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Bimodal splits the nodes into two camps: the first half (rounded down)
// holds lo, the rest holds hi — the adversarial split at the heart of the
// Theorem 3 convergence argument.
func Bimodal(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < n/2 {
			out[i] = lo
		} else {
			out[i] = hi
		}
	}
	return out
}

// BimodalSets assigns lo to the listed low nodes and hi elsewhere. Node IDs
// out of range are rejected.
func BimodalSets(n int, low []int, lo, hi float64) ([]float64, error) {
	out := Constant(n, hi)
	for _, i := range low {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("workload: node %d out of range [0,%d)", i, n)
		}
		out[i] = lo
	}
	return out, nil
}

// Uniform draws n independent values uniformly from [lo, hi).
func Uniform(n int, lo, hi float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	return out
}

// Gaussian draws n independent values from N(mean, stddev²) — the sensor
// noise model of the data-aggregation application.
func Gaussian(n int, mean, stddev float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + rng.NormFloat64()*stddev
	}
	return out
}
