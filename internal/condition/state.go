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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
)

// stateVersion versions the persisted record schemas; bump on any change so
// stale records miss instead of misparse.
const stateVersion = 1

// DefaultCheckpointEvery is the fault-set interval between checkpoint
// writes when ScanOptions.CheckpointEvery is unset. A time-based flush
// (checkpointFlushInterval) runs alongside it, so slow scans with huge
// per-fault-set cost still leave fresh checkpoints.
const DefaultCheckpointEvery = 256

// checkpointFlushInterval bounds how stale a checkpoint can get on scans
// whose fault sets take much longer than CheckpointEvery would suggest.
const checkpointFlushInterval = time.Second

// scanKeys derives the checkpoint and verdict keys for a scan identity.
// The key embeds a truncated hash of the canonical graph encoding; the
// records embed the full encoding, verified on load, so a hash collision
// degrades to a cache miss, never a wrong verdict.
func scanKeys(enc string, f, threshold int) (checkpointKey, verdictKey string) {
	sum := sha256.Sum256([]byte(enc))
	base := fmt.Sprintf("%s-f%d-t%d", hex.EncodeToString(sum[:8]), f, threshold)
	return "checkpoint/" + base, "verdict/" + base
}

// maxfKey derives the in-flight MaxF scan record's key.
func maxfKey(enc string) string {
	sum := sha256.Sum256([]byte(enc))
	return "maxf/" + hex.EncodeToString(sum[:8])
}

// checkpointRecord is the persisted image of an in-flight scan: the first
// Done fault sets of the canonical enumeration are satisfied, with the
// given aggregate work counters.
type checkpointRecord struct {
	Version    int    `json:"version"`
	Graph      string `json:"graph"`
	F          int    `json:"f"`
	Threshold  int    `json:"threshold"`
	Done       int64  `json:"done"`
	Candidates int64  `json:"candidates"`
	Pruned     int64  `json:"pruned"`
	MemoHits   int64  `json:"memo_hits"`
}

// witnessRecord serializes a Witness partition by set members.
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

func (wr *witnessRecord) witness() *Witness {
	if wr == nil {
		return nil
	}
	return &Witness{
		F: nodeset.FromMembers(wr.N, wr.F...),
		L: nodeset.FromMembers(wr.N, wr.L...),
		C: nodeset.FromMembers(wr.N, wr.C...),
		R: nodeset.FromMembers(wr.N, wr.R...),
	}
}

// verdictRecord is the persisted image of a settled check: the full Result
// of an uninterrupted (or resumed — by construction identical) scan.
type verdictRecord struct {
	Version    int            `json:"version"`
	Graph      string         `json:"graph"`
	F          int            `json:"f"`
	Threshold  int            `json:"threshold"`
	Satisfied  bool           `json:"satisfied"`
	Witness    *witnessRecord `json:"witness,omitempty"`
	FaultSets  int64          `json:"fault_sets"`
	Candidates int64          `json:"candidates"`
	Pruned     int64          `json:"pruned"`
	MemoHits   int64          `json:"memo_hits"`
}

// pendingSpan is a completed half-open range [lo, hi) of satisfied fault
// sets (keyed by lo in scanState.pending) with its aggregate counter delta,
// awaiting the contiguous frontier. The local scans complete one index at a
// time (hi = lo+1); the distributed coordinator journals whole lease chunks.
type pendingSpan struct {
	hi int64
	cc checkCounters
}

// scanState carries one CheckScan run's persistence: the loaded resume
// point and the live checkpointer. A nil *scanState disables persistence
// (every method is nil-safe where the scan loop calls it); a scanState with
// a nil store tracks the frontier in memory only — the distributed
// coordinator uses that form to aggregate counters when no backend is
// configured.
type scanState struct {
	store      statestore.Backend
	cpKey      string
	vKey       string
	enc        string
	f          int
	threshold  int
	every      int64
	resumed    checkCounters // aggregate over the resumed prefix, frozen at load
	resumedSet int64         // number of fault sets in the resumed prefix

	mu         sync.Mutex
	frontier   int64                 // contiguous completed prefix length
	pending    map[int64]pendingSpan // completed out-of-order, awaiting the frontier
	agg        checkCounters         // aggregate over [0, frontier)
	sinceWrite int64
	lastWrite  time.Time
}

// loadScanState consults the store for this scan identity. It returns, in
// order of preference: a cached verdict (cached != nil — the scan need not
// run at all), or a scanState seeded from the newest checkpoint (possibly
// empty), or an error if the store misbehaves. Records failing version or
// graph verification are treated as absent.
func loadScanState(ctx context.Context, store statestore.Backend, g *graph.Graph, f, threshold int, every int) (st *scanState, cached *Result, err error) {
	enc := g.Encode()
	cpKey, vKey := scanKeys(enc, f, threshold)
	if store == nil {
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		return &scanState{
			enc: enc, f: f, threshold: threshold, every: int64(every),
			pending:   make(map[int64]pendingSpan),
			lastWrite: time.Now(),
		}, nil, nil
	}
	if raw, err := store.Read(ctx, vKey); err == nil {
		var rec verdictRecord
		if json.Unmarshal(raw, &rec) == nil && rec.Version == stateVersion &&
			rec.Graph == enc && rec.F == f && rec.Threshold == threshold {
			return nil, &Result{
				Satisfied:          rec.Satisfied,
				Witness:            rec.Witness.witness(),
				FaultSetsExamined:  rec.FaultSets,
				CandidatesExamined: rec.Candidates,
				CandidatesPruned:   rec.Pruned,
				MemoHits:           rec.MemoHits,
				CacheHit:           true,
			}, nil
		}
	} else if err != statestore.ErrNotFound {
		return nil, nil, fmt.Errorf("condition: reading verdict cache: %w", err)
	}
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	st = &scanState{
		store: store, cpKey: cpKey, vKey: vKey, enc: enc,
		f: f, threshold: threshold, every: int64(every),
		pending:   make(map[int64]pendingSpan),
		lastWrite: time.Now(),
	}
	raw, err := store.Read(ctx, cpKey)
	if err == statestore.ErrNotFound {
		return st, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("condition: reading checkpoint: %w", err)
	}
	var rec checkpointRecord
	if json.Unmarshal(raw, &rec) != nil || rec.Version != stateVersion ||
		rec.Graph != enc || rec.F != f || rec.Threshold != threshold || rec.Done < 0 {
		return st, nil, nil // foreign or stale record: start fresh
	}
	if total := totalFaultSets(g.N(), f); total > 0 && rec.Done > total {
		return st, nil, nil // corrupt prefix length: start fresh
	}
	st.frontier = rec.Done
	st.agg = checkCounters{candidates: rec.Candidates, pruned: rec.Pruned, memoHits: rec.MemoHits}
	st.resumed = st.agg
	st.resumedSet = rec.Done
	return st, nil, nil
}

// resumePoint returns the fault-set index the scan should start at and the
// counter aggregate already accounted for. Nil-safe.
func (st *scanState) resumePoint() (int64, checkCounters) {
	if st == nil {
		return 0, checkCounters{}
	}
	return st.resumedSet, st.resumed
}

// complete records fault set i as satisfied with the given counter delta,
// advances the durable frontier over any filled gap, and checkpoints when
// the write cadence (count- or time-based) is due.
func (st *scanState) complete(ctx context.Context, i int64, delta checkCounters) error {
	return st.completeSpan(ctx, i, i+1, delta)
}

// completeSpan records the fault sets [lo, hi) as satisfied with their
// aggregate counter delta, advances the durable frontier over any filled
// gap, and checkpoints on the write cadence. Spans must be disjoint; the
// frontier only advances when the span at its position arrives, so a gap —
// an unreported lease, a violating index — is never jumped.
func (st *scanState) completeSpan(ctx context.Context, lo, hi int64, delta checkCounters) error {
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
		st.agg.candidates += s.cc.candidates
		st.agg.pruned += s.cc.pruned
		st.agg.memoHits += s.cc.memoHits
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
	if st.store == nil {
		st.sinceWrite = 0
		st.lastWrite = time.Now()
		return nil
	}
	rec := checkpointRecord{
		Version: stateVersion, Graph: st.enc, F: st.f, Threshold: st.threshold,
		Done:       st.frontier,
		Candidates: st.agg.candidates,
		Pruned:     st.agg.pruned,
		MemoHits:   st.agg.memoHits,
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := st.store.Write(ctx, st.cpKey, raw); err != nil {
		return fmt.Errorf("condition: writing checkpoint: %w", err)
	}
	st.sinceWrite = 0
	st.lastWrite = time.Now()
	return nil
}

// finish settles the scan: the verdict is cached for every later call with
// the same (graph, f, threshold), and the in-flight checkpoint is removed.
func (st *scanState) finish(ctx context.Context, res Result) error {
	if st == nil || st.store == nil {
		return nil
	}
	rec := verdictRecord{
		Version: stateVersion, Graph: st.enc, F: st.f, Threshold: st.threshold,
		Satisfied:  res.Satisfied,
		Witness:    toWitnessRecord(res.Witness),
		FaultSets:  res.FaultSetsExamined,
		Candidates: res.CandidatesExamined,
		Pruned:     res.CandidatesPruned,
		MemoHits:   res.MemoHits,
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := st.store.Write(ctx, st.vKey, raw); err != nil {
		return fmt.Errorf("condition: writing verdict: %w", err)
	}
	if err := st.store.Delete(ctx, st.cpKey); err != nil {
		return fmt.Errorf("condition: clearing checkpoint: %w", err)
	}
	return nil
}

// maxfRecord is the persisted image of an in-flight MaxF scan: the settled
// checks in f order (index == f). It exists only while a scan is in flight
// — completion deletes it, leaving the per-f verdict cache as the durable
// memo — so a resumed scan skips settled f values outright while a fresh
// scan over a previously settled graph reports verdict-cache hits.
type maxfRecord struct {
	Version int         `json:"version"`
	Graph   string      `json:"graph"`
	Checks  []maxfCheck `json:"checks"`
}

// maxfCheck summarizes one settled check of a MaxF scan.
type maxfCheck struct {
	F          int   `json:"f"`
	Satisfied  bool  `json:"satisfied"`
	FaultSets  int64 `json:"fault_sets"`
	Candidates int64 `json:"candidates"`
	Pruned     int64 `json:"pruned"`
	MemoHits   int64 `json:"memo_hits"`
}

// loadMaxFRecord returns the in-flight scan record for g, or an empty one.
func loadMaxFRecord(ctx context.Context, store statestore.Backend, enc string) (maxfRecord, error) {
	rec := maxfRecord{Version: stateVersion, Graph: enc}
	raw, err := store.Read(ctx, maxfKey(enc))
	if err == statestore.ErrNotFound {
		return rec, nil
	}
	if err != nil {
		return rec, fmt.Errorf("condition: reading maxf record: %w", err)
	}
	var got maxfRecord
	if json.Unmarshal(raw, &got) != nil || got.Version != stateVersion || got.Graph != enc {
		return rec, nil // foreign or stale: start fresh
	}
	for i, c := range got.Checks {
		if c.F != i {
			return rec, nil // corrupt ordering: start fresh
		}
	}
	return got, nil
}

// save persists the record after a settled check.
func (rec *maxfRecord) save(ctx context.Context, store statestore.Backend) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := store.Write(ctx, maxfKey(rec.Graph), raw); err != nil {
		return fmt.Errorf("condition: writing maxf record: %w", err)
	}
	return nil
}
