package condition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// ShardScanner is the checker's one fault-set scanner for a scan identity
// (g, f, threshold): the sequential scan, the parallel scan, and a
// distributed worker's index ranges all run its ScanRange. It owns
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
// The orbit table and the scan identity are read-only once built and shared
// with every Fork; the memo and the scratch are each scanner's own. A
// ShardScanner is therefore not safe for concurrent use, but its forks are
// safe to use concurrently with it and with one another: give each goroutine
// its own fork of one scanner, and the table is built once.
type ShardScanner struct {
	*orbitTable

	scratch *insulationScratch

	// memo holds one result per orbit. Only the scanner's own goroutine
	// reads it; a parallel check's window workers write distinct entries of
	// it, and check waits for them before it scans the window. Under the
	// identity group nothing reads an entry twice, so it is nil outside a
	// parallel check, and during one it holds the current window: index i's
	// result at i − windowStart.
	memo        []groundResult
	windowStart int64
}

// orbitTable is the read-only part of a scan: its identity (g, f, threshold),
// the extent and the orbit table over it.
type orbitTable struct {
	g         *graph.Graph
	f         int
	threshold int
	total     int64 // NumFaultSets(n, f)

	// orbit[i] names index i's orbit and rep[o] is orbit o's lowest index.
	// Both are nil under the identity group, where every index is its own
	// orbit and representative.
	orbit []int32
	rep   []int32
}

// windowPerWorker sizes a parallel check's window: orbits per worker, enough
// that a few slow grounds at a window's end leave the other workers little
// idle time.
const windowPerWorker = 64

// groundResult is the outcome of the candidate enumeration on one ground.
type groundResult struct {
	cc      WorkCounters
	witness *Witness // non-nil iff the ground holds two disjoint insulated sets
	done    bool
}

// ValidateScan is the feasibility gate shared by every entry point: it
// refuses a scan of n nodes that no ShardScanner can hold, before anything
// sized by n is allocated.
func ValidateScan(n, f, threshold int) error {
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
	if err := ValidateScan(g.N(), f, threshold); err != nil {
		return nil, err
	}
	return newShardScanner(g, f, threshold, graph.AutSearchBudget), nil
}

// newShardScanner is NewShardScanner past validation, with the generator
// search's step budget exposed so tests can starve it.
func newShardScanner(g *graph.Graph, f, threshold, budget int) *ShardScanner {
	n := g.N()
	t := &orbitTable{g: g, f: f, threshold: threshold, total: NumFaultSets(n, f)}
	// The table ranks one-word masks through binomTable and stores int32
	// indices, so it needs n ≤ 62 and the extent small; f = 0 has one fault
	// set and nothing to share.
	if f > 0 && n <= 62 && t.total <= math.MaxInt32 {
		t.buildOrbits(g.AutomorphismGenerators(budget))
	}
	return t.scanner()
}

// Fork returns a scanner over s's scan identity and orbit table, with a memo
// and scratch of its own: the table is shared, not rebuilt, and the fork's
// results are the ones a fresh NewShardScanner would give.
func (s *ShardScanner) Fork() *ShardScanner { return s.orbitTable.scanner() }

// scanner returns a new scanner over t with an empty memo.
func (t *orbitTable) scanner() *ShardScanner {
	s := &ShardScanner{orbitTable: t, scratch: newInsulationScratch(t.g)}
	if t.orbit != nil {
		s.memo = make([]groundResult, len(t.rep))
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

// nextFaultSet returns the fault set after mask in the canonical order over
// n ≤ 62 nodes. Within a size the order is lexicographic on the ascending
// members, so the successor keeps the members below the highest one that can
// still move up, moves that one up by one and packs the members above it, the
// run that ends at node n−1, right behind it; when every member is in that
// run, the size is exhausted and the next one starts at {0, …, k}.
func nextFaultSet(n int, mask uint64) uint64 {
	top := bits.LeadingZeros64(^(mask << uint(64-n))) // members n−top … n−1
	rest := mask & (1<<uint(n-top) - 1)
	if rest == 0 {
		return 1<<uint(bits.OnesCount64(mask)+1) - 1
	}
	p := 63 - bits.LeadingZeros64(rest)
	return rest&^(1<<uint(p)) | (1<<uint(top+1)-1)<<uint(p+1)
}

// twinClasses returns the classes of interchangeable nodes the generators
// certify, as masks of two or more nodes, and the generators that are not
// transpositions. It joins the two points of every transposition and then
// closes the classes under the other generators: when v and w share a class,
// so do h(v) and h(w), since h (v w) h⁻¹ = (h(v) h(w)). Every pair in a class
// is then a transposition of ⟨gens⟩, so each class's whole symmetric group
// is, and every generator permutes the classes (docs/THEORY.md, "Twin
// classes"). Without a transposition among gens it returns no classes and
// gens itself, and allocates nothing.
func twinClasses(n int, gens [][]int) (classes []uint64, rest [][]int) {
	var parent [64]int8
	for v := range parent {
		parent[v] = int8(v)
	}
	find := func(v int) int {
		for int(parent[v]) != v {
			parent[v] = parent[parent[v]]
			v = int(parent[v])
		}
		return v
	}
	union := func(v, w int) bool {
		if rv, rw := find(v), find(w); rv != rw {
			parent[rv] = int8(rw)
			return true
		}
		return false
	}
	twins := false
	for p, perm := range gens {
		a, b, moved := -1, -1, 0
		for v, w := range perm {
			if v != w {
				a, b, moved = b, v, moved+1
			}
		}
		if moved == 2 {
			if !twins {
				twins, rest = true, append([][]int(nil), gens[:p]...)
			}
			union(a, b)
		} else if twins {
			rest = append(rest, perm)
		}
	}
	if !twins {
		return nil, gens
	}
	for changed := true; changed; {
		changed = false
		for _, h := range rest {
			for v := 0; v < n; v++ {
				if union(h[v], h[find(v)]) {
					changed = true
				}
			}
		}
	}
	var members [64]uint64
	for v := 0; v < n; v++ {
		members[find(v)] |= 1 << uint(v)
	}
	for _, m := range members[:n] {
		if bits.OnesCount64(m) > 1 {
			classes = append(classes, m)
		}
	}
	return classes, rest
}

// buildOrbits closes the fault-set index space under the generators: orbits
// are numbered in order of their lowest index, which becomes rep. It leaves
// the table nil when there is nothing to merge. Only called with n ≤ 62, so
// each fault set is one mask word and every binomial is in the table.
//
// Fault sets that differ only inside a twin class (twinClasses) are one orbit
// under the classes' symmetric groups, and canon maps each to that orbit's
// lowest index: the |F ∩ C| lowest nodes of every class C. One pass in
// canonical order labels a non-canonical index with its canonical form's
// orbit, already labelled because that index is lower, and opens a new orbit
// at each unlabelled canonical one. The closure from it then runs over
// canonical forms under the generators that are not transpositions, which
// permute the classes; a transposition only moves a fault set within its
// class orbit.
func (t *orbitTable) buildOrbits(gens [][]int) {
	if len(gens) == 0 {
		return
	}
	n := t.g.N()
	first := make([]int64, t.f+2) // first[k] = index of the first size-k fault set
	for k := 0; k <= t.f; k++ {
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
	classes, gens := twinClasses(n, gens)
	// low[c][k] holds the k lowest members of classes[c].
	low := make([][]uint64, len(classes))
	for c, m := range classes {
		low[c] = make([]uint64, 1, bits.OnesCount64(m)+1)
		for l := uint64(0); m != 0; m &= m - 1 {
			l |= m & -m
			low[c] = append(low[c], l)
		}
	}
	canon := func(mask uint64) uint64 {
		for c, m := range classes {
			if in := mask & m; in != 0 {
				mask = mask&^m | low[c][bits.OnesCount64(in)]
			}
		}
		return mask
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
	orbit := make([]int32, t.total)
	for i := range orbit {
		orbit[i] = -1
	}
	var rep []int32
	var stack []uint64
	// Neighbours in the order mostly differ inside one class, so they share
	// a canonical form: keep the last one's orbit instead of ranking it again.
	lastCanon, lastOrbit := uint64(0), int32(0)
	for i, seed := 0, uint64(0); i < len(orbit); i, seed = i+1, nextFaultSet(n, seed) {
		if orbit[i] >= 0 {
			continue
		}
		if c := canon(seed); c != seed {
			if c != lastCanon {
				lastCanon, lastOrbit = c, orbit[rank(c)]
			}
			orbit[i] = lastOrbit
			continue
		}
		o := int32(len(rep))
		rep = append(rep, int32(i))
		orbit[i] = o
		stack = append(stack[:0], seed)
		for len(stack) > 0 {
			mask := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for p, perm := range gens {
				img := mask &^ moved[p]
				for m := mask & moved[p]; m != 0; m &= m - 1 {
					img |= 1 << uint(perm[bits.TrailingZeros64(m)])
				}
				if img = canon(img); img == mask {
					continue
				}
				if j := rank(img); orbit[j] < 0 {
					orbit[j] = o
					stack = append(stack, img)
				}
			}
		}
	}
	t.orbit, t.rep = orbit, rep
}

// NumFaultSets returns the enumeration's extent.
func (s *ShardScanner) NumFaultSets() int64 { return s.total }

// nextOrbit returns the first orbit whose representative lies at or above
// index i: i itself under the identity group, where every index is its own
// orbit.
func (t *orbitTable) nextOrbit(i int64) int64 {
	if t.rep == nil {
		return i
	}
	return int64(sort.Search(len(t.rep), func(o int) bool { return int64(t.rep[o]) >= i }))
}

// repOf returns orbit o's representative; past the last orbit, an index at
// or past the extent.
func (t *orbitTable) repOf(o int64) int64 {
	switch {
	case t.rep == nil:
		return o
	case o < int64(len(t.rep)):
		return int64(t.rep[o])
	}
	return t.total
}

// slot returns index i's memo slot and its orbit's representative.
func (s *ShardScanner) slot(i int64) (slot int, rep int64) {
	if s.orbit == nil {
		return int(i - s.windowStart), i
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
// result, taken from the memo or computed here on the representative's
// ground. A violating index that is not its own representative is scanned on
// its own ground instead, so the witness names its own F; a scan from index
// 0 never meets one, because the lowest violating index is the lowest of its
// orbit.
func (s *ShardScanner) decide(i int64) groundResult {
	slot, rep := s.slot(i)
	var res groundResult
	if s.memo != nil {
		res = s.memo[slot]
	}
	if !res.done {
		// No window worker scanned it: the scan is sequential or a
		// ScanRange, or rep lies in a resumed prefix below the window.
		res = s.scanGround(s.scratch, rep)
		if s.orbit != nil {
			s.memo[slot] = res
		}
	}
	if res.witness != nil && rep != i {
		return s.scanGround(s.scratch, i)
	}
	return res
}

// memoHit returns fault set i's result when the memo already holds its
// orbit's passing result, and nil otherwise: decide then settles i. It is
// ScanRange's one step per index on a range whose orbits are decided, so it
// is small enough to inline and copies nothing.
func (s *ShardScanner) memoHit(i int64) *groundResult {
	if s.orbit == nil {
		return nil
	}
	if r := &s.memo[s.orbit[i]]; r.done && r.witness == nil {
		return r
	}
	return nil
}

// ScanRange decides fault sets [lo, hi) in canonical order — the checker's
// one per-fault-set loop, which CheckScan runs span by span and a
// distributed worker runs once per report — and stops at the first
// violating index, as the sequential scan does. Results of orbit
// representatives, below lo included, are computed once per scanner and kept
// across calls. Cancellation is checked between fault sets, never inside the
// candidate enumeration, by a non-blocking receive on ctx.Done(), which costs
// no lock while ctx is live; a canceled scan returns its error together with
// the satisfied prefix [lo, lo+Completed) it got through.
func (s *ShardScanner) ScanRange(ctx context.Context, lo, hi int64) (RangeResult, error) {
	res := RangeResult{Violation: -1}
	if lo < 0 || hi < lo || hi > s.total {
		return res, fmt.Errorf("condition: scan range [%d, %d) outside [0, %d)", lo, hi, s.total)
	}
	done := ctx.Done()
	for i := lo; i < hi; i++ {
		select {
		case <-done:
			return res, fmt.Errorf("condition: shard scan canceled at fault set %d: %w", i, context.Cause(ctx))
		default:
		}
		r := s.memoHit(i)
		if r == nil {
			d := s.decide(i)
			if d.witness != nil {
				res.Violation, res.Witness, res.Partial = i, d.witness, d.cc
				return res, nil
			}
			r = &d
		}
		res.Completed++
		res.Satisfied.Add(r.cc)
	}
	return res, nil
}

// scanWindow scans the window of windowPerWorker·workers orbits whose
// representatives lie at or above index lo into the memo, on workers
// goroutines, and returns once they are done. The window ends at hi, just
// past its last orbit's representative (the extent past the last orbit), as
// check's spans do, so every index in [lo, hi) belongs to a window orbit or
// to one below lo: an earlier window's, or one whose representative lies in
// a resumed prefix, which decide scans itself. Workers claim orbits in
// ascending order; they stop when ctx is done, and at a representative above
// the lowest violation found so far, since the spans stop at or before that
// one.
func (s *ShardScanner) scanWindow(ctx context.Context, lo int64, workers int) (hi int64) {
	first := s.nextOrbit(lo)
	end := first + int64(windowPerWorker*workers) // orbits [first, end)
	hi = min(s.repOf(end-1)+1, s.total)
	if s.orbit == nil {
		if s.memo == nil {
			s.memo = make([]groundResult, end-first)
		}
		clear(s.memo)
		s.windowStart = lo
	}
	var (
		next, minViol atomic.Int64
		wg            sync.WaitGroup
	)
	next.Store(first)
	minViol.Store(hi)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker's own scratch, which a ground mutates, allocated
			// here rather than by the caller, so that two workers' small,
			// hot slices are not allocated back to back on one cache line.
			scratch := newInsulationScratch(s.g)
			for ctx.Err() == nil {
				i := s.repOf(next.Add(1) - 1)
				if i >= hi || i > minViol.Load() {
					return
				}
				res := s.scanGround(scratch, i)
				if res.witness != nil {
					for b := minViol.Load(); i < b && !minViol.CompareAndSwap(b, i); b = minViol.Load() {
					}
				}
				slot, _ := s.slot(i)
				s.memo[slot] = res
			}
		}()
	}
	wg.Wait()
	return hi
}

// check is CheckScan past the verdict cache: it runs ScanRange over what the
// frontier fr does not cover, span by span, and settles through fr. A span
// ends just past the next orbit representative (under the identity group it
// is one fault set) and is completed into fr with one CompleteSpan and
// reported with one Progress. With workers > 1, scanWindow first decides
// each window's orbits in parallel; a window ends just past a representative
// too, so the spans, checkpoints and snapshots are the same at every worker
// count, and totals are summed in canonical order: Σ delta(i) over the
// satisfied prefix plus the violating index's own early-exit delta.
func (s *ShardScanner) check(ctx context.Context, workers int, onProgress ProgressFunc, fr *ScanFrontier) (Result, error) {
	skip, _ := fr.ResumePoint()
	var (
		rr  = RangeResult{Violation: -1}
		err error
	)
	for lo := skip; lo < s.total && err == nil && rr.Violation < 0; {
		end := s.total
		if workers > 1 {
			end = s.scanWindow(ctx, lo, workers)
		}
		for ; lo < end && err == nil && rr.Violation < 0; lo += rr.Completed {
			hi := min(s.repOf(s.nextOrbit(lo))+1, end)
			if rr, err = s.ScanRange(ctx, lo, hi); err != nil {
				err = ctx.Err() // the span is in bounds: only a cancellation stops it
			}
			// A canceled or violating span completes its satisfied prefix.
			if cerr := fr.CompleteSpan(ctx, lo, lo+rr.Completed, rr.Satisfied); err == nil {
				err = cerr
			}
			if err == nil && rr.Violation < 0 && onProgress != nil {
				onProgress(Progress{FaultSetsDone: hi, FaultSetsTotal: fr.Total()})
			}
		}
	}
	if s.orbit == nil {
		s.memo = nil
	}
	if err == nil {
		return fr.Settle(ctx, rr.Violation, rr.Witness, rr.Partial)
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
