package condition

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
)

// Progress is a streaming snapshot of an exact check's fault-set scan.
type Progress struct {
	// FaultSetsDone counts the fault sets fully processed so far.
	FaultSetsDone int64
	// FaultSetsTotal is Σ_{k≤f} C(n,k) — the scan's full extent — or 0 when
	// it exceeds the int64 binomial table (n > 62), in which case only
	// FaultSetsDone is meaningful.
	FaultSetsTotal int64
}

// ProgressFunc receives Progress snapshots, one per processed fault set.
// With workers > 1 it is invoked concurrently from worker goroutines and
// must be safe for concurrent use; it runs on the scan's hot path, so it
// must be fast.
type ProgressFunc func(Progress)

// totalFaultSets returns Σ_{k=0..f} C(n,k), or 0 when n is outside the
// binomial table (the count is only reported, never used for control flow).
func totalFaultSets(n, f int) int64 {
	if n > 62 {
		return 0
	}
	var total int64
	for k := 0; k <= f && k <= n; k++ {
		total += binom(n, k)
	}
	return total
}

// ScanOptions configures a CheckScan.
type ScanOptions struct {
	// Workers fans the fault-set enumeration across goroutines: ≤ 0 selects
	// GOMAXPROCS, 1 (or trivially small inputs) runs the sequential scan.
	// The verdict and witness are identical at every worker count.
	Workers int
	// OnProgress, when non-nil, streams one Progress snapshot per processed
	// fault set (see ProgressFunc for the concurrency contract).
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
	// (0 = DefaultCheckpointEvery); a time-based flush runs alongside it.
	// The cadence never affects results, only resume freshness.
	CheckpointEvery int
}

// CheckScan is the full exact-check coordinator behind CheckThreshold and
// CheckParallel: it decides the Theorem 1 condition at the given in-link
// threshold with a configurable worker count, honoring ctx, streaming
// per-fault-set progress, and — with ScanOptions.Store — checkpointing the
// scan for crash-safe resume plus caching the settled verdict.
//
// Cancellation is checked between fault sets — never inside the candidate
// enumeration — so CheckScan returns within one fault set's scan time of
// ctx being canceled. On cancellation (or any error) the returned Result
// carries the work counters accumulated so far, but Satisfied and Witness
// are meaningless; the error wraps ctx.Err() together with how far the scan
// got. With a Store, an interrupted scan flushes a final checkpoint before
// returning, so the next CheckScan with the same store resumes there.
//
// With workers > 1 the workers race, but the reported witness always comes
// from the lowest-indexed failing fault set in canonical enumeration order,
// which is the one the sequential scan would return.
func CheckScan(ctx context.Context, g *graph.Graph, f, threshold int, opts ScanOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	if f < 0 {
		return Result{}, fmt.Errorf("condition: f must be >= 0, got %d", f)
	}
	if threshold < 1 {
		return Result{}, fmt.Errorf("condition: threshold must be >= 1, got %d", threshold)
	}
	if n-f > 62 {
		return Result{}, fmt.Errorf("condition: exact check infeasible for n-f = %d > 62 nodes", n-f)
	}
	var st *scanState
	if opts.Store != nil {
		var cached *Result
		var err error
		st, cached, err = loadScanState(ctx, opts.Store, g, f, threshold, opts.CheckpointEvery)
		if err != nil {
			return Result{}, err
		}
		if cached != nil {
			return *cached, nil
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || n < 8 {
		return checkSequential(ctx, g, f, threshold, opts.OnProgress, st)
	}
	return checkParallel(ctx, g, f, threshold, workers, opts.OnProgress, st)
}

// checkSequential is the single-goroutine fault-set scan — the reference
// enumeration order the parallel scan's witness selection reproduces. With
// a scanState it skips the checkpointed prefix (restoring its counter
// aggregate) and checkpoints completed fault sets as it goes.
func checkSequential(ctx context.Context, g *graph.Graph, f, threshold int, onProgress ProgressFunc, st *scanState) (Result, error) {
	n := g.N()
	universe := nodeset.Universe(n)
	total := totalFaultSets(n, f)
	skip, resumed := st.resumePoint()
	res := Result{Satisfied: true, FaultSetsExamined: skip, FaultSetsResumed: skip}
	scratch := newInsulationScratch(g)
	var counters checkCounters
	var idx int64 // position in the canonical enumeration order
	var scanErr error

	for fSize := 0; fSize <= f && fSize <= n; fSize++ {
		nodeset.SubsetsAscendingSize(universe, fSize, fSize, func(fSet nodeset.Set) bool {
			if idx < skip {
				// Checkpointed prefix: satisfied, counters restored below.
				idx++
				return true
			}
			if ctx.Err() != nil {
				scanErr = fmt.Errorf("condition: check canceled after %d/%d fault sets: %w",
					res.FaultSetsExamined, total, context.Cause(ctx))
				return false
			}
			res.FaultSetsExamined++
			before := counters
			ground := universe.Difference(fSet)
			w := findDisjointInsulatedPair(scratch, ground, threshold, &counters)
			if w != nil {
				w.F = fSet.Clone()
				w.C = ground.Difference(w.L).Difference(w.R)
				res.Satisfied = false
				res.Witness = w
				return false
			}
			if scanErr = st.complete(ctx, idx, checkCounters{
				candidates: counters.candidates - before.candidates,
				pruned:     counters.pruned - before.pruned,
				memoHits:   counters.memoHits - before.memoHits,
			}); scanErr != nil {
				return false
			}
			idx++
			if onProgress != nil {
				onProgress(Progress{FaultSetsDone: res.FaultSetsExamined, FaultSetsTotal: total})
			}
			return true
		})
		if !res.Satisfied || scanErr != nil {
			break
		}
	}
	res.CandidatesExamined = resumed.candidates + counters.candidates
	res.CandidatesPruned = resumed.pruned + counters.pruned
	res.MemoHits = resumed.memoHits + counters.memoHits
	if scanErr != nil {
		// The verdict is undecided on an interrupted scan; only the work
		// counters are meaningful. Flush a final checkpoint (on a fresh
		// context — ctx is typically the canceled one) so a resume loses
		// nothing that completed.
		res.Satisfied = false
		if ctx.Err() != nil {
			st.flush(context.Background()) // best effort; scanErr already set
		}
		return res, scanErr
	}
	if err := st.finish(ctx, res); err != nil {
		return res, err
	}
	return res, nil
}

// checkParallel fans the fault-set enumeration across worker goroutines.
// With a scanState the checkpointed prefix is skipped outright and each
// completed fault set reports its counter delta to the checkpointer, whose
// reorder buffer keeps the durable frontier contiguous.
func checkParallel(ctx context.Context, g *graph.Graph, f, threshold, workers int, onProgress ProgressFunc, st *scanState) (Result, error) {
	n := g.N()
	// Materialize the fault sets in canonical (size-ascending, then
	// combination-lexicographic) order — the same order checkSequential
	// visits them.
	universe := nodeset.Universe(n)
	var faultSets []nodeset.Set
	for fSize := 0; fSize <= f && fSize <= n; fSize++ {
		nodeset.SubsetsAscendingSize(universe, fSize, fSize, func(s nodeset.Set) bool {
			faultSets = append(faultSets, s.Clone())
			return true
		})
	}
	total := totalFaultSets(n, f)
	skip, resumed := st.resumePoint()
	if skip > int64(len(faultSets)) {
		skip = int64(len(faultSets))
	}

	witnesses := make([]*Witness, len(faultSets))
	var (
		next       atomic.Int64
		bestFail   atomic.Int64
		canceled   atomic.Bool
		candidates atomic.Int64
		pruned     atomic.Int64
		memoHits   atomic.Int64
		examined   atomic.Int64
		storeMu    sync.Mutex
		storeErr   error
	)
	bestFail.Store(int64(len(faultSets)))
	next.Store(skip)
	examined.Store(skip)
	candidates.Store(resumed.candidates)
	pruned.Store(resumed.pruned)
	memoHits.Store(resumed.memoHits)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Per-worker scratch: the base counters, the peel worklist, and
			// the empty-complement memo all mutate during a fault set.
			scratch := newInsulationScratch(g)
			var local checkCounters
			defer func() {
				candidates.Add(local.candidates)
				pruned.Add(local.pruned)
				memoHits.Add(local.memoHits)
			}()
			for !canceled.Load() {
				i := next.Add(1) - 1
				if i >= int64(len(faultSets)) {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				if i > bestFail.Load() {
					// A lower-indexed fault set already failed; anything we
					// find here would be discarded.
					continue
				}
				done := examined.Add(1)
				before := local
				fSet := faultSets[i]
				ground := universe.Difference(fSet)
				wit := findDisjointInsulatedPair(scratch, ground, threshold, &local)
				if wit == nil {
					if err := st.complete(ctx, i, checkCounters{
						candidates: local.candidates - before.candidates,
						pruned:     local.pruned - before.pruned,
						memoHits:   local.memoHits - before.memoHits,
					}); err != nil {
						// A checkpoint write that failed with ctx's own error
						// is the cancellation landing mid-write, not a store
						// fault: take the canceled exit below, which flushes
						// on a fresh context.
						if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
							storeMu.Lock()
							if storeErr == nil {
								storeErr = err
							}
							storeMu.Unlock()
						}
						canceled.Store(true)
						return
					}
					if onProgress != nil {
						onProgress(Progress{FaultSetsDone: done, FaultSetsTotal: total})
					}
					continue
				}
				wit.F = fSet.Clone()
				wit.C = ground.Difference(wit.L).Difference(wit.R)
				witnesses[i] = wit
				// Lower bestFail to i if i is smaller.
				for {
					b := bestFail.Load()
					if i >= b || bestFail.CompareAndSwap(b, i) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	res := Result{
		Satisfied:          true,
		FaultSetsExamined:  examined.Load(),
		FaultSetsResumed:   skip,
		CandidatesExamined: candidates.Load(),
		CandidatesPruned:   pruned.Load(),
		MemoHits:           memoHits.Load(),
	}
	if storeErr != nil {
		res.Satisfied = false
		return res, storeErr
	}
	if canceled.Load() {
		res.Satisfied = false
		// Flush the contiguous frontier so the resume loses at most the
		// out-of-order tail; ctx is the canceled one, so write on a fresh
		// context.
		st.flush(context.Background())
		return res, fmt.Errorf("condition: check canceled after %d/%d fault sets: %w",
			examined.Load(), total, context.Cause(ctx))
	}
	if b := bestFail.Load(); b < int64(len(faultSets)) {
		res.Satisfied = false
		res.Witness = witnesses[b]
	}
	if err := st.finish(ctx, res); err != nil {
		return res, err
	}
	return res, nil
}

// CheckParallel is Check with the fault-set enumeration fanned out across
// worker goroutines — CheckScan at the synchronous threshold, without
// progress streaming or persistence. The verdict and witness are identical
// to Check's.
//
// The speedup tracks core count when the cost is spread over many fault
// sets (large n, f ≥ 2) — per-fault-set work is independent and lock-free —
// though coordination overhead caps the gain on few-core machines.
func CheckParallel(ctx context.Context, g *graph.Graph, f, workers int) (Result, error) {
	return CheckScan(ctx, g, f, SyncThreshold(f), ScanOptions{Workers: workers})
}
