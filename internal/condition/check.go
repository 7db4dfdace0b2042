package condition

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
)

// Witness is a partition F, L, C, R of V violating Theorem 1: |F| ≤ f,
// L and R non-empty, C∪R ⇏ L and L∪C ⇏ R. It certifies that no correct
// iterative approximate Byzantine consensus algorithm exists for (G, f)
// (the adversary of the Theorem 1 proof — adversary.PartitionAttack —
// freezes L and R at distinct values forever).
type Witness struct {
	F, L, C, R nodeset.Set
}

// String renders the witness partition.
func (w *Witness) String() string {
	return fmt.Sprintf("F=%v L=%v C=%v R=%v", w.F, w.L, w.C, w.R)
}

// Verify checks the witness against the literal statement of Theorem 1 and
// Definition 1 — independently of the checker's internal reformulation.
// It returns an error describing the first defect found, or nil if the
// witness genuinely violates the condition for (g, f) under threshold.
func (w *Witness) Verify(g *graph.Graph, f, threshold int) error {
	n := g.N()
	universe := nodeset.Universe(n)
	union := w.F.Union(w.L).Union(w.C).Union(w.R)
	if !union.Equal(universe) {
		return fmt.Errorf("condition: witness sets do not cover V: %v", union)
	}
	total := w.F.Count() + w.L.Count() + w.C.Count() + w.R.Count()
	if total != n {
		return fmt.Errorf("condition: witness sets overlap (%d memberships over %d nodes)", total, n)
	}
	if w.F.Count() > f {
		return fmt.Errorf("condition: |F| = %d exceeds f = %d", w.F.Count(), f)
	}
	if w.L.Empty() || w.R.Empty() {
		return fmt.Errorf("condition: L and R must be non-empty (|L|=%d, |R|=%d)", w.L.Count(), w.R.Count())
	}
	if Reaches(g, w.C.Union(w.R), w.L, threshold) {
		return fmt.Errorf("condition: C∪R ⇒ L holds, not a violation")
	}
	if Reaches(g, w.L.Union(w.C), w.R, threshold) {
		return fmt.Errorf("condition: L∪C ⇒ R holds, not a violation")
	}
	return nil
}

// Result reports the outcome of an exact Theorem 1 check.
type Result struct {
	// Satisfied is true iff every partition passes the condition — i.e.
	// iterative approximate Byzantine consensus tolerating f faults is
	// possible on this graph (Theorems 1–3).
	Satisfied bool
	// Witness is a violating partition when Satisfied is false, nil
	// otherwise.
	Witness *Witness
	// FaultSetsExamined counts the fault sets F decided: those scanned on
	// their own ground plus those that inherited the result of their orbit's
	// representative under the graph's automorphisms (ShardScanner). It is
	// the same at every worker count: on a violated graph, the index of the
	// lowest violating fault set plus one.
	FaultSetsExamined int64
	// CandidatesExamined counts candidate L sets accounted for by the
	// enumeration: those explicitly tested for insulation, those the degree
	// lower bound excluded, those skipped under a prefix the lookahead ruled
	// out (see findDisjointInsulatedPair), and, for a fault set that
	// inherited its result, the representative's count of all three — the
	// same number, since automorphisms map candidates to candidates. On a
	// satisfied graph the total equals the unpruned every-fault-set
	// checker's count exactly (Σ_F Σ_k C(m,k)), so work numbers stay
	// comparable across checker versions.
	CandidatesExamined int64
	// CandidatesPruned counts the candidate L sets of CandidatesExamined
	// excluded by the degree lower bound (see the pruning invariant in the
	// package doc of iabc's doc.go): a node with base[v] ≥ threshold + |L| −
	// 1 in-neighbors from ground cannot belong to any insulated set of size
	// |L|, so every candidate containing it is skipped unvisited. The
	// lookahead's skips are not counted here: how many it skips depends on
	// the node order, while this count is invariant under automorphisms,
	// which orbit inheritance relies on. Always ≤ CandidatesExamined.
	CandidatesPruned int64
	// MemoHits counts maximal-insulated-subset computations skipped because
	// a previously peeled subset of the candidate already proved the
	// complement's maximal insulated subset empty (see
	// insulationScratch.dead). Always ≤ CandidatesExamined. Inherited like
	// the other counters; it equals the every-fault-set scan's count unless
	// some ground overflows the memo's deadCap entries, where the count
	// depends on the enumeration order and the representative's is used.
	MemoHits int64
	// FaultSetsResumed counts fault sets skipped because a persisted
	// checkpoint (ScanOptions.Store) already covered them. Their counter
	// contributions are restored from the checkpoint, so every total above
	// equals an uninterrupted run's; this field only reports how much of
	// the scan was inherited.
	FaultSetsResumed int64
	// CacheHit reports that the whole Result — verdict, witness, and
	// counters — was served from the verdict cache without enumeration.
	CacheHit bool
}

// work returns r's three work counters as one value.
func (r *Result) work() WorkCounters {
	return WorkCounters{Candidates: r.CandidatesExamined, Pruned: r.CandidatesPruned, MemoHits: r.MemoHits}
}

// setWork sets r's three work counters.
func (r *Result) setWork(c WorkCounters) {
	r.CandidatesExamined, r.CandidatesPruned, r.MemoHits = c.Candidates, c.Pruned, c.MemoHits
}

// WorkCounters is the per-scan work account: candidate L sets examined
// (tested + pruned), the pruned split, and memo hits. One instance
// accumulates per goroutine; it is also the unit that flows from workers to
// the coordinator and, embedded in the record bodies, into checkpoints.
type WorkCounters struct {
	Candidates int64 `json:"candidates"`
	Pruned     int64 `json:"pruned"`
	MemoHits   int64 `json:"memo_hits"`
}

// Add accumulates other into c. A sum that would pass math.MaxInt64 stops
// there, and a counter at math.MaxInt64 counts as overflowed (overflow).
func (c *WorkCounters) Add(other WorkCounters) {
	c.Candidates = addSat(c.Candidates, other.Candidates)
	c.Pruned = addSat(c.Pruned, other.Pruned)
	c.MemoHits = addSat(c.MemoHits, other.MemoHits)
}

// times returns c's counters times k ≥ 0, each stopping at math.MaxInt64 as
// Add's sums do.
func (c WorkCounters) times(k int64) WorkCounters {
	mul := func(x int64) int64 {
		if hi, lo := bits.Mul64(uint64(k), uint64(x)); hi == 0 && lo <= math.MaxInt64 {
			return int64(lo)
		}
		return math.MaxInt64
	}
	return WorkCounters{Candidates: mul(c.Candidates), Pruned: mul(c.Pruned), MemoHits: mul(c.MemoHits)}
}

// overflow returns a *CounterOverflowError naming c's first counter at
// math.MaxInt64, or nil.
func (c WorkCounters) overflow() error {
	var name string
	switch int64(math.MaxInt64) {
	case c.Candidates:
		name = "candidate sets"
	case c.Pruned:
		name = "pruned candidate sets"
	case c.MemoHits:
		name = "memo hits"
	default:
		return nil
	}
	return &CounterOverflowError{Counter: name}
}

// negative reports whether one of c's counters is below zero, which no sum
// of counts reaches.
func (c WorkCounters) negative() bool {
	return c.Candidates < 0 || c.Pruned < 0 || c.MemoHits < 0
}

// addSat returns a+b, or the int64 bound it would pass.
func addSat(a, b int64) int64 {
	if s := a + b; (s < a) == (b < 0) {
		return s
	}
	if b < 0 {
		return math.MinInt64
	}
	return math.MaxInt64
}

// CounterOverflowError is the error of a check whose work counters would
// pass int64. The sums stop at math.MaxInt64 (WorkCounters.Add), and the
// ScanFrontier and the maxf sweep, which add up every local scan's and
// distributed worker's account, refuse one that reaches it instead of
// reporting a wrapped value.
type CounterOverflowError struct {
	// Counter names the first counter that overflowed: "candidate sets",
	// "pruned candidate sets" or "memo hits".
	Counter string
}

func (e *CounterOverflowError) Error() string {
	return fmt.Sprintf("condition: work counters overflow int64: more than %d %s", int64(math.MaxInt64), e.Counter)
}

// binomTable holds C(n, k) for n ≤ 62 — the checker's feasibility cap on
// ground sizes — built by Pascal's rule so no intermediate overflows int64
// (the largest entry, C(62,31) ≈ 4.2e17, fits comfortably).
var binomTable = func() [63][63]int64 {
	var t [63][63]int64
	for n := 0; n <= 62; n++ {
		t[n][0] = 1
		for k := 1; k <= n; k++ {
			t[n][k] = t[n-1][k-1] + t[n-1][k]
		}
	}
	return t
}()

// binom returns C(n, k) exactly, or 0 when k is outside [0, n] or the
// value overflows int64 — a count no enumeration could reach by visiting.
// Past binomTable the product is formed directly.
func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if n <= 62 {
		return binomTable[n][k]
	}
	k = min(k, n-k)
	// After step i, r = C(n−k+i, i) ≤ C(n, k): the 128-bit product keeps
	// each step exact, and a step that overflows means the result would.
	r := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(r, uint64(n-k+i))
		if hi >= uint64(i) {
			return 0
		}
		if r, _ = bits.Div64(hi, lo, uint64(i)); r > math.MaxInt64 {
			return 0
		}
	}
	return int64(r)
}

// Check runs the exact Theorem 1 check for the synchronous model
// (threshold f+1). See CheckThreshold for the algorithm.
func Check(g *graph.Graph, f int) (Result, error) {
	return CheckThreshold(g, f, SyncThreshold(f))
}

// CheckThreshold decides, exactly, whether every partition F, L, C, R of V
// with |F| ≤ f and L, R ≠ ∅ satisfies C∪R ⇒ L or L∪C ⇒ R under the given
// in-link threshold.
//
// # Insulated-set reformulation
//
// Fix F and let W = V−F. Call X ⊆ W insulated (w.r.t. W, threshold) if
// every v ∈ X has at most threshold−1 in-neighbors in W−X. Because
// C∪R = W−L and L∪C = W−R, the condition fails for this F iff there exist
// two disjoint non-empty insulated sets L, R ⊆ W. Insulated sets are closed
// under union, so the maximal insulated subset of any ground set is unique
// and computable by iterative deletion in O(n²) bitset steps. The checker
// therefore enumerates candidate L (2^|W| subsets, ascending size, early
// exit) and, for each insulated L, computes the maximal insulated subset of
// W−L; non-empty means a violation with R = that subset.
//
// This replaces the naive 3^n enumeration over (L, C, R) triples. The
// candidate enumeration is further cut down — without changing Satisfied,
// the returned witness or the counters — by degree-lower-bound pruning, a
// prefix lookahead and an empty-complement memo (see
// findDisjointInsulatedPair); Result reports the degree bound's and the
// memo's savings as CandidatesPruned and MemoHits. The returned witness is
// re-verifiable via (*Witness).Verify.
//
// The fault-set enumeration is cut by symmetry: one fault set per orbit of
// the graph's automorphisms is scanned and the rest inherit its result (see
// ShardScanner), again without changing Satisfied, the witness or the
// counters.
//
// CheckThreshold is CheckScan with one worker and no context, progress or
// store: the scan settles through a memory-only ScanFrontier.
func CheckThreshold(g *graph.Graph, f, threshold int) (Result, error) {
	return CheckScan(context.Background(), g, f, threshold, ScanOptions{Workers: 1})
}

// findDisjointInsulatedPair searches for two disjoint non-empty insulated
// subsets of ground. It enumerates candidate L in ascending size (violations
// with small L — e.g. single under-connected nodes — are found immediately)
// and, within a size, in lexicographic order of the ground's members; it
// pairs each insulated L with the maximal insulated subset of the
// complement. Returns a witness with L and R filled in, or nil.
//
// The search runs on s's word masks over the ground's positions (see
// insulationScratch): each insulation test is a popcount of a member's
// in-row against the candidate's row, and a ground allocates nothing but
// its witness. Three further cuts keep the search exact while skipping most
// of it:
//
//   - Degree pruning. A node v in an insulated set X has at most |X|−1
//     in-neighbors inside X (no self-loops), so base[v] − (|X|−1) ≤
//     threshold−1 must hold — any v with base[v] ≥ threshold + |X| − 1 is
//     inadmissible at size |X|, and every candidate containing it is
//     skipped unvisited (s.admit). Counted in CandidatesExamined and
//     CandidatesPruned.
//   - Prefix lookahead. The candidates of one size over the admitted pool
//     are walked depth first, one member at a time, and a prefix none of
//     whose completions can be insulated (s.viable) is skipped with its
//     whole subtree. Counted in CandidatesExamined only: how many a prefix
//     skips depends on the node order, while CandidatesPruned stays a
//     property of the graph that orbit inheritance can rely on.
//   - Empty-complement memo. For each insulated L whose complement peeled
//     to ∅, the scratch records L (s.recordDead); a later insulated L' ⊇ L
//     has ground−L' ⊆ ground−L, and the maximal insulated subset is
//     monotone in its sub argument, so its peel is provably ∅ and skipped
//     (s.knownDead). Only peels are skipped, never candidate tests.
//
// The first two skip only candidates that are not insulated and keep the
// visiting order of the rest, and the memo records insulated candidates
// only, so the first violating candidate found — and hence the witness —
// and all three counters are those of the plain enumeration.
func findDisjointInsulatedPair(s *insulationScratch, ground nodeset.Set, threshold int, c *WorkCounters) *Witness {
	m := ground.Count()
	if m < 2 {
		return nil
	}
	s.setGround(ground)
	// L needs at most floor(m/2) nodes: if a disjoint pair (L, R) exists,
	// the smaller side has ≤ m/2 nodes, and the pair is symmetric in L/R.
	for k := 1; k <= m/2; k++ {
		kept := s.admit(k, threshold)
		// Grounds beyond binomTable (possible while n−f ≤ 62 when fSize < f)
		// are never enumerable to completion; leave them out of the account
		// rather than difference a count that may have overflowed to 0.
		if m <= 62 {
			skipped := binom(m, k) - binom(kept, k)
			c.Candidates += skipped
			c.Pruned += skipped
		}
		if k > kept {
			continue
		}
		if w := walkCandidates(s, k, threshold, c); w != nil {
			return w
		}
	}
	return nil
}

// walkCandidates visits the size-k candidates over s.pool depth first, in
// the lexicographic order of pool indices, and returns the first witness.
// A prefix that is not viable is skipped with the C(len(pool)−i−1, left)
// completions below it, i being its last index; at full size that is the
// one candidate failing the insulation test.
func walkCandidates(s *insulationScratch, k, threshold int, c *WorkCounters) *Witness {
	pool, idx, cur := s.pool, s.idx[:k], s.cur[:s.w]
	last := len(pool) - k // the highest index at depth 0; idx[d] ≤ last+d
	d := 0
	idx[0] = 0
	for {
		i := idx[d]
		p := pool[i]
		cur[p>>6] |= 1 << (p & 63)
		left := k - 1 - d
		if left == 0 {
			s.tested++
		}
		switch {
		case !s.viable(idx[:d+1], left, threshold):
			c.Candidates += binom(len(pool)-1-i, left)
		case left > 0:
			d++
			idx[d] = i + 1
			continue
		default:
			c.Candidates++
			if s.knownDead() {
				c.MemoHits++
			} else if r := s.peelComplement(threshold); ones(r) == 0 {
				s.recordDead()
			} else {
				w := &Witness{L: s.nodes(cur), R: s.nodes(r)}
				clear(cur)
				return w
			}
		}
		// Advance to the next prefix, backtracking past exhausted depths.
		for {
			p := pool[idx[d]]
			cur[p>>6] &^= 1 << (p & 63)
			idx[d]++
			if idx[d] <= last+d {
				break
			}
			if d == 0 {
				return nil
			}
			d--
		}
	}
}

// MaxF returns the largest f ≥ 0 for which the graph satisfies Theorem 1
// under the synchronous threshold, or -1 if even f = 0 fails (the graph
// cannot reach consensus iteratively at all — it has multiple source
// components). The condition is monotone: satisfying f implies satisfying
// every f' < f, so a linear scan with early exit is exact.
func MaxF(g *graph.Graph) (int, error) {
	best, _, err := MaxFScan(context.Background(), g, MaxFOptions{})
	return best, err
}

// MaxFStats aggregates the checker work a MaxF scan performed across its
// Check calls — the numbers `iabc maxf` reports.
type MaxFStats struct {
	// ChecksRun counts the checks settled by the scan, one per f tried —
	// including checks served by the verdict cache, so the total matches an
	// uninterrupted scan.
	ChecksRun int
	// FaultSetsExamined, CandidatesExamined, CandidatesPruned and MemoHits
	// sum the corresponding Result counters over all checks; a cached
	// verdict carries its original counters.
	FaultSetsExamined  int64
	CandidatesExamined int64
	CandidatesPruned   int64
	MemoHits           int64
	// CacheHits counts checks served whole from the verdict cache — on a
	// resumed scan, every f the interrupted scan had settled.
	CacheHits int
	// FaultSetsResumed sums Result.FaultSetsResumed over the live checks —
	// fault sets inherited from mid-check checkpoints.
	FaultSetsResumed int64
}

// MaxFOptions configures MaxFScan.
type MaxFOptions struct {
	// Workers is the per-check worker count (see CheckScan); 0 — the zero
	// value — runs the sequential scan, < 0 selects GOMAXPROCS.
	Workers int
	// OnCheck, when non-nil, is invoked after each completed Check with the
	// f just decided and its Result — the f-sweep's progress stream. It
	// fires for every f, including one served from the verdict cache.
	OnCheck func(f int, res Result)
	// OnProgress, when non-nil, streams the inner fault-set progress of the
	// check currently running at f (see ProgressFunc for the concurrency
	// contract).
	OnProgress func(f int, p Progress)
	// Store, when non-nil, makes the scan durable through the per-check
	// state alone: each settled f's verdict is cached (with its Result
	// counters) by canonical graph encoding, and the in-flight check
	// checkpoints at fault-set granularity. A resumed scan — or any later
	// scan of the same graph — re-runs the sweep from f = 0, takes every
	// settled f from the cache as a cache hit, and resumes the in-flight f
	// from its checkpoint. Stats totals are identical either way.
	Store statestore.Backend
	// CheckpointEvery is the per-check checkpoint cadence (see
	// ScanOptions.CheckpointEvery).
	CheckpointEvery int
	// CheckRunner, when non-nil, replaces CheckScan as the executor of each
	// per-f check — the seam the distributed coordinator plugs into so one
	// MaxFScan reuses its sweep and stats aggregation unchanged while the
	// fault-set enumeration runs on remote workers. The runner must honor
	// the CheckScan contract: same Result for the same (g, f, threshold),
	// opts.Store consulted for resume/caching.
	CheckRunner func(ctx context.Context, g *graph.Graph, f, threshold int, opts ScanOptions) (Result, error)
}

// MaxFScan is the full MaxF coordinator: the monotone f-sweep with context
// cancellation (checked at fault-set granularity inside each CheckScan),
// a per-check worker count, progress callbacks, and — with MaxFOptions.
// Store — crash-safe resume. On error — including cancellation — it
// returns the best f decided so far and the stats accumulated up to the
// point of interruption.
func MaxFScan(ctx context.Context, g *graph.Graph, opts MaxFOptions) (int, MaxFStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers == 0 {
		workers = 1
	}
	best := -1
	var (
		stats MaxFStats
		work  WorkCounters // stats' three work counters
	)
	runCheck := opts.CheckRunner
	if runCheck == nil {
		runCheck = CheckScan
	}
	for f := 0; 3*f < g.N(); f++ {
		var progress ProgressFunc
		if opts.OnProgress != nil {
			f := f
			progress = func(p Progress) { opts.OnProgress(f, p) }
		}
		res, err := runCheck(ctx, g, f, SyncThreshold(f), ScanOptions{
			Workers:         workers,
			OnProgress:      progress,
			Store:           opts.Store,
			CheckpointEvery: opts.CheckpointEvery,
		})
		stats.ChecksRun++
		stats.FaultSetsExamined += res.FaultSetsExamined
		work.Add(res.work())
		stats.CandidatesExamined, stats.CandidatesPruned, stats.MemoHits = work.Candidates, work.Pruned, work.MemoHits
		stats.FaultSetsResumed += res.FaultSetsResumed
		if res.CacheHit {
			stats.CacheHits++
		}
		if err == nil {
			err = work.overflow()
		}
		if err != nil {
			return best, stats, fmt.Errorf("condition: maxf scan at f=%d: %w", f, err)
		}
		if opts.OnCheck != nil {
			opts.OnCheck(f, res)
		}
		if !res.Satisfied {
			break
		}
		best = f
	}
	return best, stats, nil
}

// Violation is a human-readable reason a graph fails a polynomial-time
// necessary condition.
type Violation struct {
	// Rule identifies the failed check: "order" (n ≥ 2), "corollary2"
	// (n > 3f; n > 5f async), or "corollary3" (in-degree ≥ 2f+1; ≥ 3f+1
	// async).
	Rule string
	// Detail describes the failure.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// QuickScreen evaluates the polynomial-time necessary conditions implied by
// Theorem 1 — Corollary 2 (n > 3f) and Corollary 3 (every in-degree
// ≥ 2f+1 when f > 0) — without running the exponential check. An empty
// result does NOT imply the condition holds (the f=2, n=7 chord network
// passes both corollaries yet fails Theorem 1, Section 6.3); a non-empty
// result proves it fails.
func QuickScreen(g *graph.Graph, f int) []Violation {
	return quickScreen(g, f, 3*f, 2*f+1)
}

// QuickScreenAsync is QuickScreen for the Section 7 asynchronous model:
// n > 5f and in-degree ≥ 3f+1 when f > 0.
func QuickScreenAsync(g *graph.Graph, f int) []Violation {
	return quickScreen(g, f, 5*f, 3*f+1)
}

func quickScreen(g *graph.Graph, f, minOrderExclusive, minInDegree int) []Violation {
	var out []Violation
	if g.N() < 2 {
		out = append(out, Violation{
			Rule:   "order",
			Detail: fmt.Sprintf("need n >= 2 nodes, have %d", g.N()),
		})
	}
	if f > 0 && g.N() <= minOrderExclusive {
		out = append(out, Violation{
			Rule:   "corollary2",
			Detail: fmt.Sprintf("need n > %d for f = %d, have n = %d", minOrderExclusive, f, g.N()),
		})
	}
	if f > 0 {
		for i := 0; i < g.N(); i++ {
			if d := g.InDegree(i); d < minInDegree {
				out = append(out, Violation{
					Rule:   "corollary3",
					Detail: fmt.Sprintf("node %d has in-degree %d < %d", i, d, minInDegree),
				})
			}
		}
	}
	return out
}
