package condition

// This file exports what a distributed scan runs on workers. A scan is
// embarrassingly parallel across fault sets, and each fault set's work —
// verdict contribution and counter delta alike — is a pure function of
// (graph, f, threshold) and its index: that is the same determinism argument
// the checkpoint/resume layer rests on (see state.go). A worker executes an
// arbitrary index range of the canonical fault-set enumeration through
// ShardScanner.ScanRange, the loop CheckScan itself runs span by span,
// reproducing the sequential scan's early-exit semantics within the range;
// the coordinator journals the ranges into the ScanFrontier CheckScan itself
// settles through (state.go).
//
// Because both sides are pure in the scan identity, a run sharded across
// machines — including one where leases expire and are re-executed —
// finishes with verdict, witness, and counters identical to the
// single-process scan.

import "math"

// NumFaultSets returns the scan extent Σ_{k≤f} C(n,k): the number of fault
// sets the canonical enumeration visits, and the index space every
// ShardScanner, ScanFrontier and distributed lease of (n, f) shares. It is 0
// when the extent overflows int64, which ValidateScan refuses.
func NumFaultSets(n, f int) int64 {
	var total int64
	for k := 0; k <= min(f, n); k++ {
		c := binom(n, k)
		if c == 0 || total > math.MaxInt64-c {
			return 0
		}
		total += c
	}
	return total
}

// RangeResult reports a ShardScanner.ScanRange outcome.
type RangeResult struct {
	// Completed counts the satisfied fault sets scanned: indexes
	// [lo, lo+Completed) passed. Equal to hi−lo after a clean pass.
	Completed int64
	// Violation is the absolute index of the first violating fault set in
	// the range, or -1. The scan stops there, exactly like the sequential
	// scan does.
	Violation int64
	// Witness is the violating partition when Violation >= 0.
	Witness *Witness
	// Satisfied aggregates the counter deltas of the Completed prefix.
	Satisfied WorkCounters
	// Partial is the violating fault set's own early-exit counter delta —
	// the work findDisjointInsulatedPair did before stopping at the first
	// violating candidate. Zero when the range is clean. The single-process
	// scan includes exactly this partial in its totals, so a distributed
	// aggregate that adds Partial once (for the lowest violation) matches.
	Partial WorkCounters
}
