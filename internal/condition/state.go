package condition

// This file is the checker's one account of scan progress, ScanFrontier,
// and its durability: periodic checkpoints of an in-flight fault-set scan
// and a cache of settled verdicts, both persisted through a pluggable
// statestore.Backend so multi-hour exact scans survive process death and
// repeated topologies hit instead of recompute.
//
// Soundness rests on two determinism facts:
//
//   - The verdict is a pure function of (graph, f, threshold) — Theorem 1
//     quantifies over partitions of the graph alone — so a cached Result
//     keyed by the canonical graph.Encode plus (f, threshold) can be
//     replayed verbatim for any later call with the same key.
//   - Each fault set's work-counter contribution (candidates, pruned, memo
//     hits) is a pure function of (graph, f, threshold) and its index: it is
//     the contribution of one ground — its orbit representative's, fixed by
//     the deterministic orbits (scanner.go) — where the degree pruning
//     depends only on base in-degrees and the empty-complement memo is
//     cleared per ground (insulationScratch.setGround), so no state leaks
//     across fault sets. A resumed scan that restores the persisted prefix
//     aggregate and skips those fault sets therefore finishes with counter
//     totals identical to an uninterrupted run.
//
// The frontier is a *contiguous* completed prefix of the canonical
// fault-set enumeration order. The local scan completes fault sets in that
// order; the distributed coordinator's leases complete out of order, and
// wait in a reorder buffer until the gaps before them fill — what lands on
// disk is always "the first Done fault sets are satisfied, and here is
// exactly their aggregate work", never a sparse set. Both end through the
// same Settle, so they report and persist the same Result.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
)

// stateVersion versions the persisted record bodies below; bump on any
// change so stale records miss (statestore.Record.Load) instead of
// misparsing. 2: bodies moved under the statestore envelope.
const stateVersion = 2

// DefaultCheckpointEvery is the fault-set interval between checkpoint
// writes when ScanOptions.CheckpointEvery is unset. A time-based flush
// (checkpointFlushInterval) runs alongside it, so slow scans with huge
// per-fault-set cost still leave fresh checkpoints.
const DefaultCheckpointEvery = 256

// checkpointFlushInterval bounds how stale a checkpoint can get on scans
// whose fault sets take much longer than CheckpointEvery would suggest.
const checkpointFlushInterval = time.Second

// scanRecords returns the checkpoint and verdict records of a scan identity:
// the canonical graph encoding plus (f, threshold), which the envelope
// carries whole and verifies on load.
func scanRecords(store statestore.Backend, enc string, f, threshold int) (checkpoint, verdict statestore.Record) {
	ident := fmt.Sprintf("%s f=%d threshold=%d", enc, f, threshold)
	suffix := fmt.Sprintf("-f%d-t%d", f, threshold)
	return statestore.NewRecord(store, "checkpoint", stateVersion, ident).Sub(suffix),
		statestore.NewRecord(store, "verdict", stateVersion, ident).Sub(suffix)
}

// checkpointBody is the persisted image of an in-flight scan: the first
// Done fault sets of the canonical enumeration are satisfied, with the
// given aggregate work counters.
type checkpointBody struct {
	Done int64 `json:"done"`
	WorkCounters
}

// witnessRecord serializes a Witness partition by set members: the universe
// size plus the members of each part.
type witnessRecord struct {
	N int   `json:"n"`
	F []int `json:"f"`
	L []int `json:"l"`
	C []int `json:"c"`
	R []int `json:"r"`
}

func toWitnessRecord(w *Witness) *witnessRecord {
	if w == nil {
		return nil
	}
	return &witnessRecord{
		N: w.F.Cap(),
		F: w.F.Members(), L: w.L.Members(), C: w.C.Members(), R: w.R.Members(),
	}
}

// witness rebuilds the partition, or errors on a member outside [0, N).
func (wr *witnessRecord) witness() (*Witness, error) {
	if wr == nil {
		return nil, nil
	}
	var sets [4]nodeset.Set
	for k, ids := range [][]int{wr.F, wr.L, wr.C, wr.R} {
		var err error
		if sets[k], err = nodeset.Decode(wr.N, ids); err != nil {
			return nil, err
		}
	}
	return &Witness{F: sets[0], L: sets[1], C: sets[2], R: sets[3]}, nil
}

// EncodeWitness serializes a witness as the JSON the verdict cache stores —
// also what a distributed worker's violation report carries.
func EncodeWitness(w *Witness) ([]byte, error) { return json.Marshal(toWitnessRecord(w)) }

// DecodeWitness inverts EncodeWitness.
func DecodeWitness(raw []byte) (*Witness, error) {
	var rec *witnessRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("condition: decoding witness: %w", err)
	}
	w, err := rec.witness()
	if err != nil {
		return nil, fmt.Errorf("condition: decoding witness: %w", err)
	}
	return w, nil
}

// verdictBody is the persisted image of a settled check: the full Result of
// an uninterrupted (or resumed — by construction identical) scan.
type verdictBody struct {
	Satisfied bool           `json:"satisfied"`
	Witness   *witnessRecord `json:"witness,omitempty"`
	FaultSets int64          `json:"fault_sets"`
	WorkCounters
}

// pendingSpan is a completed half-open range [lo, hi) of satisfied fault
// sets (keyed by lo in ScanFrontier.pending) with its aggregate counter
// delta, awaiting the contiguous frontier.
type pendingSpan struct {
	hi int64
	cc WorkCounters
}

// ScanFrontier is one scan's progress: the contiguous prefix of the
// canonical fault-set enumeration completed so far, with its aggregate work
// counters. Completed spans may arrive out of order — the distributed
// coordinator journals whole lease chunks as they come in — and wait in a
// reorder buffer until the frontier reaches them, so the frontier never jumps
// a gap. With a store, the frontier is checkpointed on the write cadence and
// the settled verdict is cached; without one it is the same account, kept in
// memory only. The local scan and the coordinator both end through Settle.
type ScanFrontier struct {
	checkpoint statestore.Record
	verdict    statestore.Record
	every      int64
	total      int64
	resumed    WorkCounters // aggregate over the resumed prefix, frozen at load
	resumedSet int64        // number of fault sets in the resumed prefix

	mu         sync.Mutex
	frontier   int64                 // contiguous completed prefix length
	pending    map[int64]pendingSpan // completed out of order; made on first use
	agg        WorkCounters          // aggregate over [0, frontier)
	sinceWrite int64
	lastWrite  time.Time
}

// LoadScanFrontier validates the scan identity (g, f, threshold) — f ≥ 0,
// threshold ≥ 1, n−f ≤ 62, an extent that fits int64 — and consults the
// store for it. It returns, in order of preference: a cached verdict
// (cached != nil — the scan need not run), or a frontier seeded from the
// newest checkpoint (possibly empty). What makes a stored record usable is
// statestore.Record.Load's business; a checkpoint whose prefix length is
// impossible is treated as absent too. With a nil store the frontier is
// memory-only and the graph is not encoded.
func LoadScanFrontier(ctx context.Context, store statestore.Backend, g *graph.Graph, f, threshold, checkpointEvery int) (fr *ScanFrontier, cached *Result, err error) {
	if err := ValidateScan(g.N(), f, threshold); err != nil {
		return nil, nil, err
	}
	if checkpointEvery <= 0 {
		checkpointEvery = DefaultCheckpointEvery
	}
	fr = &ScanFrontier{every: int64(checkpointEvery), total: NumFaultSets(g.N(), f)}
	if store == nil {
		return fr, nil, nil
	}
	fr.checkpoint, fr.verdict = scanRecords(store, g.Encode(), f, threshold)
	fr.lastWrite = time.Now()
	var v verdictBody
	ok, err := fr.verdict.Load(ctx, &v)
	if err != nil {
		return nil, nil, err
	}
	// A witness with a member outside [0, n) makes the verdict a miss, like
	// any other record that fails to load, and so does a negative counter: a
	// wrapped sum an older build stored.
	if w, werr := v.Witness.witness(); ok && werr == nil && !v.WorkCounters.negative() {
		res := &Result{
			Satisfied:         v.Satisfied,
			Witness:           w,
			FaultSetsExamined: v.FaultSets,
			CacheHit:          true,
		}
		res.setWork(v.WorkCounters)
		return nil, res, nil
	}
	var cp checkpointBody
	ok, err = fr.checkpoint.Load(ctx, &cp)
	if err != nil {
		return nil, nil, err
	}
	if !ok || cp.Done < 0 || cp.Done > fr.total || cp.WorkCounters.negative() {
		return fr, nil, nil // no checkpoint, or a corrupt prefix length or sum: start fresh
	}
	fr.frontier, fr.agg = cp.Done, cp.WorkCounters
	fr.resumedSet, fr.resumed = cp.Done, cp.WorkCounters
	return fr, nil, nil
}

// Total returns the scan extent (see NumFaultSets).
func (fr *ScanFrontier) Total() int64 { return fr.total }

// ResumePoint returns the first fault-set index still to scan and the
// counter aggregate the persisted prefix already accounts for.
func (fr *ScanFrontier) ResumePoint() (int64, WorkCounters) {
	return fr.resumedSet, fr.resumed
}

// CompleteSpan journals the fault sets [lo, hi) as satisfied with their
// aggregate counter delta, advances the frontier over any filled gap, and
// checkpoints when the write cadence (count- or time-based) is due. Spans
// must be disjoint. A span starting at the frontier advances it directly —
// the local scans complete fault sets in order and never touch the reorder
// buffer; any other span waits there, so a gap (an unreported lease, a
// violating index) is never jumped. A span whose counters would carry the
// aggregate past int64 is refused with a *CounterOverflowError, and the
// frontier stays below it.
func (fr *ScanFrontier) CompleteSpan(ctx context.Context, lo, hi int64, delta WorkCounters) error {
	if hi <= lo {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if lo != fr.frontier {
		if fr.pending == nil {
			fr.pending = make(map[int64]pendingSpan)
		}
		fr.pending[lo] = pendingSpan{hi: hi, cc: delta}
	} else {
		s, ok := pendingSpan{hi: hi, cc: delta}, true
		for ; ok; s, ok = fr.pending[fr.frontier] {
			agg := fr.agg
			agg.Add(s.cc)
			if err := agg.overflow(); err != nil {
				return err // the frontier stays below s: a flush stores no saturated sum
			}
			delete(fr.pending, fr.frontier)
			fr.agg = agg
			fr.sinceWrite += s.hi - fr.frontier
			fr.frontier = s.hi
		}
	}
	if fr.checkpoint.Store != nil && (fr.sinceWrite >= fr.every ||
		(fr.sinceWrite > 0 && time.Since(fr.lastWrite) >= checkpointFlushInterval)) {
		return fr.writeLocked(ctx)
	}
	return nil
}

// Position returns the current contiguous frontier and the counter
// aggregate over [0, frontier) — resumed prefix included.
func (fr *ScanFrontier) Position() (int64, WorkCounters) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.frontier, fr.agg
}

// Flush forces a checkpoint write of the current frontier — the last act of
// an interrupted scan, so a resume loses at most the reorder tail.
func (fr *ScanFrontier) Flush(ctx context.Context) error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.writeLocked(ctx)
}

func (fr *ScanFrontier) writeLocked(ctx context.Context) error {
	if fr.checkpoint.Store != nil {
		if err := fr.checkpoint.Save(ctx, checkpointBody{Done: fr.frontier, WorkCounters: fr.agg}); err != nil {
			return err
		}
	}
	fr.sinceWrite = 0
	fr.lastWrite = time.Now()
	return nil
}

// Settle ends a scan that ran to its end: viol is the lowest violating
// fault-set index, with its witness w and its own early-exit counter delta
// partial, or -1 (w nil, partial zero) when every fault set passed. The
// Result counts the frontier's fault sets after a clean pass and viol+1
// after a violation, and sums the frontier's aggregate plus partial (a sum
// past int64 is refused with a *CounterOverflowError); Finish then caches
// it.
func (fr *ScanFrontier) Settle(ctx context.Context, viol int64, w *Witness, partial WorkCounters) (Result, error) {
	frontier, agg := fr.Position()
	agg.Add(partial)
	if err := agg.overflow(); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: viol < 0, Witness: w, FaultSetsExamined: frontier, FaultSetsResumed: fr.resumedSet}
	if viol >= 0 {
		res.FaultSetsExamined = viol + 1
	}
	res.setWork(agg)
	return res, fr.Finish(ctx, res)
}

// Finish caches the verdict for every later call with the same identity and
// removes the in-flight checkpoint. The bytes depend on res alone, so a
// distributed scan persists exactly what a single-process one does for the
// same Result. Without a store it does nothing.
func (fr *ScanFrontier) Finish(ctx context.Context, res Result) error {
	if fr.verdict.Store == nil {
		return nil
	}
	if err := fr.verdict.Save(ctx, verdictBody{
		Satisfied:    res.Satisfied,
		Witness:      toWitnessRecord(res.Witness),
		FaultSets:    res.FaultSetsExamined,
		WorkCounters: res.work(),
	}); err != nil {
		return err
	}
	if err := fr.checkpoint.Store.Delete(ctx, fr.checkpoint.Key); err != nil {
		return fmt.Errorf("condition: clearing checkpoint: %w", err)
	}
	return nil
}
