package condition

// This file is the checker's durability layer: periodic checkpoints of an
// in-flight fault-set scan, and a cache of settled verdicts, both persisted
// through a pluggable statestore.Backend so multi-hour exact scans survive
// process death and repeated topologies hit instead of recompute.
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
//     the deterministic orbit table (scanner.go) — where the degree pruning
//     depends only on base in-degrees and the empty-complement memo is
//     cleared per ground (insulationScratch.setGround), so no state leaks
//     across fault sets. A resumed scan that restores the persisted prefix
//     aggregate and skips those fault sets therefore finishes with counter
//     totals identical to an uninterrupted run.
//
// Checkpoints record only a *contiguous* completed prefix of the canonical
// fault-set enumeration order. The local scans complete fault sets in that
// order; the distributed coordinator's leases complete out of order, so the
// checkpointer keeps a reorder buffer of counter deltas and advances the
// durable frontier as gaps fill — what lands on disk is always "the first
// Done fault sets are satisfied, and here is exactly their aggregate work",
// never a sparse set.

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
// sets (keyed by lo in scanState.pending) with its aggregate counter delta,
// awaiting the contiguous frontier. The local scans complete one index at a
// time (hi = lo+1); the distributed coordinator journals whole lease chunks.
type pendingSpan struct {
	hi int64
	cc WorkCounters
}

// scanState carries one CheckScan run's persistence: the loaded resume
// point and the live checkpointer. A nil *scanState disables persistence
// (every method is nil-safe where the scan loop calls it); a scanState whose
// records have a nil Store tracks the frontier in memory only — the
// distributed coordinator uses that form to aggregate counters when no
// backend is configured.
type scanState struct {
	checkpoint statestore.Record
	verdict    statestore.Record
	every      int64
	resumed    WorkCounters // aggregate over the resumed prefix, frozen at load
	resumedSet int64        // number of fault sets in the resumed prefix

	mu         sync.Mutex
	frontier   int64                 // contiguous completed prefix length
	pending    map[int64]pendingSpan // completed out-of-order, awaiting the frontier
	agg        WorkCounters          // aggregate over [0, frontier)
	sinceWrite int64
	lastWrite  time.Time
}

// loadScanState consults the store for this scan identity. It returns, in
// order of preference: a cached verdict (cached != nil — the scan need not
// run at all), or a scanState seeded from the newest checkpoint (possibly
// empty), or an error if the store misbehaves. What makes a stored record
// usable is statestore.Record.Load's business; a checkpoint whose prefix
// length is impossible is treated as absent too.
func loadScanState(ctx context.Context, store statestore.Backend, g *graph.Graph, f, threshold int, every int) (st *scanState, cached *Result, err error) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	st = &scanState{
		every:     int64(every),
		pending:   make(map[int64]pendingSpan),
		lastWrite: time.Now(),
	}
	st.checkpoint, st.verdict = scanRecords(store, g.Encode(), f, threshold)
	if store == nil {
		return st, nil, nil
	}
	var v verdictBody
	ok, err := st.verdict.Load(ctx, &v)
	if err != nil {
		return nil, nil, err
	}
	// A witness with a member outside [0, n) makes the verdict a miss, like
	// any other record that fails to load.
	if w, werr := v.Witness.witness(); ok && werr == nil {
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
	ok, err = st.checkpoint.Load(ctx, &cp)
	if err != nil {
		return nil, nil, err
	}
	if total := totalFaultSets(g.N(), f); !ok || cp.Done < 0 || (total > 0 && cp.Done > total) {
		return st, nil, nil // no checkpoint, or a corrupt prefix length: start fresh
	}
	st.frontier = cp.Done
	st.agg = cp.WorkCounters
	st.resumed = st.agg
	st.resumedSet = cp.Done
	return st, nil, nil
}

// resumePoint returns the fault-set index the scan should start at and the
// counter aggregate already accounted for. Nil-safe.
func (st *scanState) resumePoint() (int64, WorkCounters) {
	if st == nil {
		return 0, WorkCounters{}
	}
	return st.resumedSet, st.resumed
}

// complete records fault set i as satisfied with the given counter delta,
// advances the durable frontier over any filled gap, and checkpoints when
// the write cadence (count- or time-based) is due.
func (st *scanState) complete(ctx context.Context, i int64, delta WorkCounters) error {
	return st.completeSpan(ctx, i, i+1, delta)
}

// completeSpan records the fault sets [lo, hi) as satisfied with their
// aggregate counter delta, advances the durable frontier over any filled
// gap, and checkpoints on the write cadence. Spans must be disjoint; the
// frontier only advances when the span at its position arrives, so a gap —
// an unreported lease, a violating index — is never jumped.
func (st *scanState) completeSpan(ctx context.Context, lo, hi int64, delta WorkCounters) error {
	if st == nil {
		return nil
	}
	if hi <= lo {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pending[lo] = pendingSpan{hi: hi, cc: delta}
	for {
		s, ok := st.pending[st.frontier]
		if !ok {
			break
		}
		delete(st.pending, st.frontier)
		st.agg.Add(s.cc)
		st.sinceWrite += s.hi - st.frontier
		st.frontier = s.hi
	}
	if st.sinceWrite >= st.every || (st.sinceWrite > 0 && time.Since(st.lastWrite) >= checkpointFlushInterval) {
		return st.writeLocked(ctx)
	}
	return nil
}

// flush forces a checkpoint write of the current frontier — the last act of
// an interrupted scan, so a resume loses at most the out-of-order tail.
func (st *scanState) flush(ctx context.Context) error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.writeLocked(ctx)
}

func (st *scanState) writeLocked(ctx context.Context) error {
	if st.checkpoint.Store != nil {
		if err := st.checkpoint.Save(ctx, checkpointBody{Done: st.frontier, WorkCounters: st.agg}); err != nil {
			return err
		}
	}
	st.sinceWrite = 0
	st.lastWrite = time.Now()
	return nil
}

// finish settles the scan: the verdict is cached for every later call with
// the same (graph, f, threshold), and the in-flight checkpoint is removed.
func (st *scanState) finish(ctx context.Context, res Result) error {
	if st == nil || st.verdict.Store == nil {
		return nil
	}
	if err := st.verdict.Save(ctx, verdictBody{
		Satisfied:    res.Satisfied,
		Witness:      toWitnessRecord(res.Witness),
		FaultSets:    res.FaultSetsExamined,
		WorkCounters: res.work(),
	}); err != nil {
		return err
	}
	if err := st.checkpoint.Store.Delete(ctx, st.checkpoint.Key); err != nil {
		return fmt.Errorf("condition: clearing checkpoint: %w", err)
	}
	return nil
}
