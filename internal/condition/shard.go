package condition

// This file exports the checker's two distribution seams. A scan is
// embarrassingly parallel across fault sets, and each fault set's work —
// verdict contribution and counter delta alike — is a pure function of
// (graph, f, threshold) and its index: that is the same determinism argument
// the checkpoint/resume layer rests on (see state.go). The distributed
// runner in internal/distrib builds on exactly these two pieces:
//
//   - ShardScanner (scanner.go), the scanner CheckScan itself folds over,
//     executes an arbitrary index range of the canonical fault-set
//     enumeration on a worker through ScanRange, reproducing the sequential
//     scan's early-exit semantics within the range.
//   - ScanFrontier is the coordinator's durable contiguous frontier — the
//     same checkpointer CheckScan uses internally, with a reorder buffer
//     for lease-sized spans that complete out of order.
//
// Because both sides are pure in the scan identity, a run sharded across
// machines — including one where leases expire and are re-executed —
// finishes with verdict, witness, and counters identical to the
// single-process scan.

import (
	"context"
	"fmt"

	"iabc/internal/graph"
	"iabc/internal/statestore"
)

// NumFaultSets returns the scan extent Σ_{k≤f} C(n,k) — the number of fault
// sets the canonical enumeration visits — or 0 when n exceeds the int64
// binomial table (n > 62), in which case the scan cannot be partitioned by
// index and must run locally.
func NumFaultSets(n, f int) int64 { return totalFaultSets(n, f) }

// ScanFrontier is the coordinator-facing handle on a scan's durable
// contiguous frontier: completed spans are journaled out of order, the
// frontier advances only over gap-free prefixes, and the aggregate is
// checkpointed through a statestore.Backend on the usual cadence. With a
// nil store the frontier is memory-only — same aggregation, no durability.
type ScanFrontier struct {
	st    *scanState
	total int64
}

// LoadScanFrontier consults the store (which may be nil) for the scan
// identity (g, f, threshold) and returns, in order of preference: a cached
// verdict (cached != nil — the scan need not run), or a frontier seeded
// from the newest checkpoint (possibly empty). The validation mirrors
// CheckScan's: f ≥ 0, threshold ≥ 1, n−f ≤ 62.
func LoadScanFrontier(ctx context.Context, store statestore.Backend, g *graph.Graph, f, threshold, checkpointEvery int) (fr *ScanFrontier, cached *Result, err error) {
	if err := validateScan(g.N(), f, threshold); err != nil {
		return nil, nil, err
	}
	st, cached, err := loadScanState(ctx, store, g, f, threshold, checkpointEvery)
	if err != nil || cached != nil {
		return nil, cached, err
	}
	return &ScanFrontier{st: st, total: totalFaultSets(g.N(), f)}, nil, nil
}

// Total returns the scan extent (see NumFaultSets).
func (fr *ScanFrontier) Total() int64 { return fr.total }

// ResumePoint returns the first fault-set index still to scan and the
// counter aggregate the persisted prefix already accounts for.
func (fr *ScanFrontier) ResumePoint() (int64, WorkCounters) {
	return fr.st.resumePoint()
}

// CompleteSpan journals the fault sets [lo, hi) as satisfied with their
// aggregate counter delta. Spans must be disjoint; out-of-order spans wait
// in the reorder buffer, so the durable frontier never jumps a gap.
func (fr *ScanFrontier) CompleteSpan(ctx context.Context, lo, hi int64, delta WorkCounters) error {
	return fr.st.completeSpan(ctx, lo, hi, delta)
}

// Position returns the current contiguous frontier and the counter
// aggregate over [0, frontier) — resumed prefix included.
func (fr *ScanFrontier) Position() (int64, WorkCounters) {
	fr.st.mu.Lock()
	defer fr.st.mu.Unlock()
	return fr.st.frontier, fr.st.agg
}

// Flush forces a checkpoint write of the current frontier — the last act of
// an interrupted coordinator, so a resume loses at most the reorder tail.
func (fr *ScanFrontier) Flush(ctx context.Context) error { return fr.st.flush(ctx) }

// Finish settles the scan: the verdict is cached for later calls with the
// same identity and the in-flight checkpoint is removed — byte-identical to
// what a single-process CheckScan would persist for the same Result.
func (fr *ScanFrontier) Finish(ctx context.Context, res Result) error {
	return fr.st.finish(ctx, res)
}

// RangeResult reports a ShardScanner.ScanRange outcome.
type RangeResult struct {
	// Completed counts the satisfied fault sets scanned: indexes
	// [lo, lo+Completed) passed. Equal to hi−lo iff no violation.
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

// ScanRange decides fault sets [lo, hi), stopping at the first violation —
// the sequential scan restricted to the range, on the same fold. Results of
// orbit representatives — below lo included — are computed once per scanner
// and kept across calls. Cancellation is checked between fault sets; on
// cancellation the caller discards the partial result (its lease is simply
// re-run elsewhere).
func (s *ShardScanner) ScanRange(ctx context.Context, lo, hi int64) (RangeResult, error) {
	res := RangeResult{Violation: -1}
	if lo < 0 || hi < lo || hi > s.total {
		return res, fmt.Errorf("condition: scan range [%d, %d) outside [0, %d)", lo, hi, s.total)
	}
	stop, viol, err := s.fold(ctx, lo, hi, func(_ int64, cc WorkCounters) error {
		res.Completed++
		res.Satisfied.Add(cc)
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("condition: shard scan canceled at fault set %d: %w", stop, context.Cause(ctx))
	}
	if viol.witness != nil {
		res.Violation = stop
		res.Witness = viol.witness
		res.Partial = viol.cc
	}
	return res, nil
}
