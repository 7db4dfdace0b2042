package condition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// ShardScanner is the checker's one fault-set scanner for a scan identity
// (g, f, threshold): the sequential scan, the parallel scan, and a
// distributed worker's index ranges all fold over it. It owns
//
//   - the index space: fault set i is the i-th subset of size ≤ f in
//     canonical (size-ascending, then combination-lexicographic) order,
//     unranked on demand (faultSet) for the grounds actually scanned;
//   - the orbit table: which fault sets are images of one another under the
//     automorphisms graph.AutomorphismGenerators found;
//   - one result per orbit, computed on the ground of the orbit's
//     lowest-indexed member (its representative) the first time any member
//     is asked for.
//
// Definition 1 is invariant under Aut(G), so every member of an orbit has
// the representative's verdict; its counter delta is defined to be the
// representative's too (docs/THEORY.md, "Symmetry"). Both are pure in
// (g, f, threshold) and independent of who asks in which order, which is
// what keeps resumed, parallel and distributed scans identical to the
// sequential one.
//
// A ShardScanner is not safe for concurrent use; give each goroutine its
// own.
type ShardScanner struct {
	g         *graph.Graph
	f         int
	threshold int
	total     int64 // NumFaultSets(n, f)

	// orbit[i] names index i's orbit and rep[o] is orbit o's lowest index.
	// Both are nil under the identity group, where every index is its own
	// orbit and representative.
	orbit []int32
	rep   []int32

	scratch *insulationScratch

	// memo holds one result per orbit. It is nil when nothing could read an
	// entry twice: identity group, no prefetchers. mu guards memo and the two
	// prefetch fields; cond signals a stored result or a prefetcher leaving.
	mu           sync.Mutex
	cond         *sync.Cond
	memo         []groundResult
	prefetchers  int   // running prefetch goroutines
	prefetchFrom int64 // they scan the representatives at or above this index
}

// groundResult is the outcome of the candidate enumeration on one ground.
type groundResult struct {
	cc      WorkCounters
	witness *Witness // non-nil iff the ground holds two disjoint insulated sets
	done    bool
}

// validateScan is the feasibility gate shared by every entry point.
func validateScan(n, f, threshold int) error {
	if f < 0 {
		return fmt.Errorf("condition: f must be >= 0, got %d", f)
	}
	if threshold < 1 {
		return fmt.Errorf("condition: threshold must be >= 1, got %d", threshold)
	}
	if n-f > 62 {
		return fmt.Errorf("condition: exact check infeasible for n-f = %d > 62 nodes", n-f)
	}
	if NumFaultSets(n, f) == 0 {
		return fmt.Errorf("condition: exact check infeasible: the fault sets of size ≤ %d over %d nodes overflow int64", f, n)
	}
	return nil
}

// NewShardScanner builds the orbit table for (g, f, threshold).
func NewShardScanner(g *graph.Graph, f, threshold int) (*ShardScanner, error) {
	if err := validateScan(g.N(), f, threshold); err != nil {
		return nil, err
	}
	return newShardScanner(g, f, threshold, graph.AutSearchBudget), nil
}

// newShardScanner is NewShardScanner past validation, with the generator
// search's step budget exposed so tests can starve it.
func newShardScanner(g *graph.Graph, f, threshold, budget int) *ShardScanner {
	n := g.N()
	s := &ShardScanner{
		g: g, f: f, threshold: threshold,
		total:   NumFaultSets(n, f),
		scratch: newInsulationScratch(g),
	}
	s.cond = sync.NewCond(&s.mu)
	// The table ranks one-word masks through binomTable and stores int32
	// indices, so it needs n ≤ 62 and the extent small; f = 0 has one fault
	// set and nothing to share.
	if f > 0 && n <= 62 && s.total <= math.MaxInt32 {
		s.buildOrbits(g.AutomorphismGenerators(budget))
	}
	if s.orbit != nil {
		s.memo = make([]groundResult, len(s.rep))
	}
	return s
}

// faultSet calls add with the members, ascending, of fault set i < extent
// of the canonical order over n nodes: it skips whole sizes, C(n, k) sets
// each, then picks members left to right, where C(n−1−v, k−1) of the
// remaining size-k sets take v as their next member. This unranks the
// combinatorial number system that buildOrbits' rank encodes.
func faultSet(n int, i int64, add func(v int)) {
	k := 0
	for c := binom(n, 0); i >= c; c = binom(n, k) {
		i -= c
		k++
	}
	for v := 0; k > 0; v++ {
		if c := binom(n-1-v, k-1); i >= c {
			i -= c
		} else {
			add(v)
			k--
		}
	}
}

// buildOrbits closes the fault-set index space under the generators: orbits
// are numbered in order of their lowest index, which becomes rep. It leaves
// the table nil when there is nothing to merge. Only called with n ≤ 62, so
// each fault set is one mask word and every binomial is in the table; the
// closure stack holds masks, so each orbit unranks only its first member.
func (s *ShardScanner) buildOrbits(gens [][]int) {
	if len(gens) == 0 {
		return
	}
	n := s.g.N()
	first := make([]int64, s.f+2) // first[k] = index of the first size-k fault set
	for k := 0; k <= s.f; k++ {
		first[k+1] = first[k] + binom(n, k)
	}
	rank := func(mask uint64) int64 {
		k := bits.OnesCount64(mask)
		r := first[k+1] - 1
		for i := 0; mask != 0; mask, i = mask&(mask-1), i+1 {
			r -= binomTable[n-1-bits.TrailingZeros64(mask)][k-i]
		}
		return r
	}
	// moved[p] is the support of generator p. Nodes outside it keep their
	// bit, and the deep-level generators move only a few nodes each.
	moved := make([]uint64, len(gens))
	for p, perm := range gens {
		for v, w := range perm {
			if v != w {
				moved[p] |= 1 << uint(v)
			}
		}
	}
	orbit := make([]int32, s.total)
	for i := range orbit {
		orbit[i] = -1
	}
	var rep []int32
	var stack []uint64
	for i := range orbit {
		if orbit[i] >= 0 {
			continue
		}
		o := int32(len(rep))
		rep = append(rep, int32(i))
		orbit[i] = o
		var seed uint64
		faultSet(n, int64(i), func(v int) { seed |= 1 << uint(v) })
		stack = append(stack[:0], seed)
		for len(stack) > 0 {
			mask := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for p, perm := range gens {
				img := mask &^ moved[p]
				for m := mask & moved[p]; m != 0; m &= m - 1 {
					img |= 1 << uint(perm[bits.TrailingZeros64(m)])
				}
				if img == mask {
					continue
				}
				if j := rank(img); orbit[j] < 0 {
					orbit[j] = o
					stack = append(stack, img)
				}
			}
		}
	}
	s.orbit, s.rep = orbit, rep
}

// NumFaultSets returns the enumeration's extent.
func (s *ShardScanner) NumFaultSets() int64 { return s.total }

// slot returns index i's memo slot and its orbit's representative.
func (s *ShardScanner) slot(i int64) (slot int, rep int64) {
	if s.orbit == nil {
		return int(i), i
	}
	o := s.orbit[i]
	return int(o), int64(s.rep[o])
}

// scanGround runs the candidate enumeration on fault set i's own ground.
func (s *ShardScanner) scanGround(scratch *insulationScratch, i int64) groundResult {
	fSet := nodeset.New(s.g.N())
	faultSet(s.g.N(), i, fSet.Add)
	ground := fSet.Complement()
	res := groundResult{done: true}
	if w := findDisjointInsulatedPair(scratch, ground, s.threshold, &res.cc); w != nil {
		w.F = fSet
		w.C = ground.Difference(w.L).Difference(w.R)
		res.witness = w
	}
	return res
}

// decide returns fault set i's verdict and counter delta: its orbit's
// result, taken from the memo, awaited from a prefetcher, or computed here
// on the representative's ground. A violating index that is not its own
// representative is scanned on its own ground instead, so the witness names
// its own F; a scan from index 0 never meets one, because the lowest
// violating index is the lowest of its orbit.
func (s *ShardScanner) decide(i int64) groundResult {
	slot, rep := s.slot(i)
	var res groundResult
	if s.memo != nil {
		s.mu.Lock()
		for !s.memo[slot].done && s.prefetchers > 0 && rep >= s.prefetchFrom {
			s.cond.Wait()
		}
		res = s.memo[slot]
		s.mu.Unlock()
	}
	if !res.done {
		// No prefetcher has it or will: they are gone, or rep lies in a
		// resumed prefix they do not cover.
		res = s.scanGround(s.scratch, rep)
		if s.memo != nil {
			s.mu.Lock()
			s.memo[slot] = res
			s.mu.Unlock()
		}
	}
	if res.witness != nil && rep != i {
		return s.scanGround(s.scratch, i)
	}
	return res
}

// fold decides fault sets [lo, hi) in canonical order — the one per-fault-set
// loop — calling satisfied with each passing index's counter delta. It stops
// at the first violating index (viol.witness != nil), at the first error
// from satisfied, or when ctx is done (err = ctx.Err()); stop is the index
// it stopped at, hi after a clean pass. Cancellation is checked between
// fault sets, never inside the candidate enumeration.
func (s *ShardScanner) fold(ctx context.Context, lo, hi int64, satisfied func(i int64, cc WorkCounters) error) (stop int64, viol groundResult, err error) {
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return i, groundResult{}, err
		}
		res := s.decide(i)
		if res.witness != nil {
			return i, res, nil
		}
		if err := satisfied(i, res.cc); err != nil {
			return i, groundResult{}, err
		}
	}
	return hi, groundResult{}, nil
}

// prefetch starts workers goroutines that scan the grounds of the
// representatives at or above from, in ascending order, into the memo, where
// fold picks them up; representatives beyond a violation already found are
// left out, since fold stops before them. The returned function stops the
// goroutines and waits for them. With workers ≤ 1 there is nothing to run
// ahead of: fold computes each result as it gets there. Without an orbit
// table the memo holds one result per index, so past the table's extent
// gate fold runs alone too.
func (s *ShardScanner) prefetch(ctx context.Context, from int64, workers int) (stop func()) {
	if workers <= 1 || (s.memo == nil && s.total > math.MaxInt32) {
		return func() {}
	}
	if s.memo == nil {
		s.memo = make([]groundResult, s.total)
	}
	s.prefetchers, s.prefetchFrom = workers, from
	var (
		next, minViol atomic.Int64
		stopped       atomic.Bool
		wg            sync.WaitGroup
	)
	next.Store(from)
	minViol.Store(s.total)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				s.mu.Lock()
				s.prefetchers--
				s.cond.Broadcast()
				s.mu.Unlock()
			}()
			// Per-goroutine scratch: the base counters, the peel worklist and
			// the empty-complement memo all mutate during a ground.
			scratch := newInsulationScratch(s.g)
			for !stopped.Load() && ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= s.total || i > minViol.Load() {
					return
				}
				slot, rep := s.slot(i)
				if rep != i {
					continue
				}
				res := s.scanGround(scratch, i)
				if res.witness != nil {
					for b := minViol.Load(); i < b && !minViol.CompareAndSwap(b, i); b = minViol.Load() {
					}
				}
				s.mu.Lock()
				s.memo[slot] = res
				s.cond.Broadcast()
				s.mu.Unlock()
			}
		}()
	}
	return func() {
		stopped.Store(true)
		wg.Wait()
	}
}

// check is CheckScan past the verdict cache: one fold over everything the
// frontier fr does not cover, with workers prefetchers running ahead of it,
// completing each satisfied fault set into fr in canonical order and
// settling through it. Totals are therefore summed in canonical order
// whatever the worker count: Σ delta(i) over the satisfied prefix plus the
// violating index's own early-exit delta.
func (s *ShardScanner) check(ctx context.Context, workers int, onProgress ProgressFunc, fr *ScanFrontier) (Result, error) {
	skip, _ := fr.ResumePoint()
	stopPrefetch := s.prefetch(ctx, skip, workers)
	stop, viol, err := s.fold(ctx, skip, s.total, func(i int64, cc WorkCounters) error {
		if err := fr.CompleteSpan(ctx, i, i+1, cc); err != nil {
			return err
		}
		if onProgress != nil {
			onProgress(Progress{FaultSetsDone: i + 1, FaultSetsTotal: fr.Total()})
		}
		return nil
	})
	stopPrefetch()
	if err == nil {
		if viol.witness == nil {
			stop = -1 // a clean pass: no violating index
		}
		return fr.Settle(ctx, stop, viol.witness, viol.cc)
	}
	// The verdict is undecided on an interrupted scan; only the work
	// counters are meaningful.
	done, agg := fr.Position()
	res := Result{FaultSetsExamined: done, FaultSetsResumed: skip}
	res.setWork(agg)
	if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
		return res, err
	}
	// Cancellation, seen between fault sets or landing inside a checkpoint
	// write: flush the frontier on a fresh context (ctx is the canceled one;
	// best effort) so a resume loses nothing that completed.
	fr.Flush(context.Background())
	return res, fmt.Errorf("condition: check canceled after %d/%d fault sets: %w",
		done, fr.Total(), context.Cause(ctx))
}
