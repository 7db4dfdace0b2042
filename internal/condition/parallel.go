package condition

import (
	"context"
	"runtime"

	"iabc/internal/graph"
	"iabc/internal/statestore"
)

// Progress is a streaming snapshot of an exact check's fault-set scan.
type Progress struct {
	// FaultSetsDone counts the fault sets fully processed so far.
	FaultSetsDone int64
	// FaultSetsTotal is Σ_{k≤f} C(n,k), the scan's full extent (NumFaultSets).
	FaultSetsTotal int64
}

// ProgressFunc receives Progress snapshots, one per completed span, in
// canonical order and from one goroutine at a time. A local scan's span ends
// just past an orbit representative (one fault set on a graph without
// symmetry) or at the extent, whatever the worker count; the distributed
// coordinator reports once per lease report, from its connection handlers.
type ProgressFunc func(Progress)

// ScanOptions configures a CheckScan.
type ScanOptions struct {
	// Workers fans the fault-set enumeration across goroutines: ≤ 0 selects
	// GOMAXPROCS, 1 (or trivially small inputs) runs the sequential scan.
	// The verdict, witness and counters are identical at every worker count.
	Workers int
	// OnProgress, when non-nil, streams one Progress snapshot per completed
	// span (see ProgressFunc for the delivery contract).
	OnProgress ProgressFunc
	// Store, when non-nil, makes the scan durable: the contiguous prefix of
	// completed fault sets and its aggregate work counters are checkpointed
	// periodically, a fresh scan resumes past the persisted prefix with
	// verdict, witness, and counter totals identical to an uninterrupted
	// run, and settled verdicts are cached by the canonical graph encoding
	// (Result.CacheHit) so repeated topologies skip enumeration entirely.
	// Store errors abort the scan.
	Store statestore.Backend
	// CheckpointEvery is the fault-set interval between checkpoint writes
	// (0 = DefaultCheckpointEvery), checked as each span completes; a
	// time-based flush runs alongside it.
	// The cadence never affects results, only resume freshness.
	CheckpointEvery int
}

// CheckScan is the full exact check behind CheckThreshold: it decides the
// Theorem 1 condition at the given in-link threshold with a configurable
// worker count, honoring ctx and streaming per-span progress. It loads the
// scan's ScanFrontier (LoadScanFrontier; memory-only without
// ScanOptions.Store), returns a cached verdict as is, and otherwise runs
// ShardScanner.ScanRange over the fault sets the frontier does not cover,
// one span per orbit, completing each span into it and settling the Result
// through it — with a Store, the scan is checkpointed for crash-safe resume
// and the settled verdict cached.
//
// Cancellation is checked between ground scans (between fault sets where
// the graph has no symmetry), never inside the candidate enumeration, so
// CheckScan returns within one ground's scan time of ctx being canceled. On cancellation (or any error) the returned Result
// carries the work counters accumulated so far, but Satisfied and Witness
// are meaningless; the error wraps ctx.Err() together with how far the scan
// got. An interrupted scan flushes a final checkpoint before returning, so
// the next CheckScan with the same store resumes there.
//
// With workers > 1 the scan goes window by window: the workers decide the
// next window's orbits on their representatives' grounds
// (ShardScanner.scanWindow), then the spans run over the window's fault sets
// in canonical order. The reported witness comes from the
// lowest-indexed failing fault set and the counters are summed over exactly
// the fault sets the sequential scan decides.
func CheckScan(ctx context.Context, g *graph.Graph, f, threshold int, opts ScanOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fr, cached, err := LoadScanFrontier(ctx, opts.Store, g, f, threshold, opts.CheckpointEvery)
	if err != nil {
		return Result{}, err
	}
	if cached != nil {
		return *cached, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.N() < 8 {
		workers = 1
	}
	return newShardScanner(g, f, threshold, ScanGenerators(g, f)).check(ctx, workers, opts.OnProgress, fr)
}
