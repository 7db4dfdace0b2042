package condition

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
//   - the orbits: which fault sets are images of one another under the
//     automorphisms it was built from (buildOrbits);
//   - one result per orbit, computed on the ground of the orbit's
//     lowest-indexed member (its representative) the first time any member
//     is asked for.
//
// Definition 1 is invariant under Aut(G), so every member of an orbit has
// the representative's verdict; its counter delta is defined to be the
// representative's too (docs/THEORY.md, "Symmetry"). Both are pure in
// (g, f, threshold) and independent of who asks in which order, which is
// what keeps resumed, parallel and distributed scans identical to the
// sequential one. A ShardScanner is not safe for concurrent use: give each
// goroutine its own.
type ShardScanner struct {
	g         *graph.Graph
	f         int
	threshold int
	total     int64 // NumFaultSets(n, f)

	// rep[o] is orbit o's lowest index, ascending in o; nil under the
	// identity group, where every index is its own orbit and representative.
	rep []int64
	// orbit[i] names index i's orbit, when the orbits are a table.
	orbit []int32
	// On count vectors, blocks partitions the nodes into twin classes and
	// single nodes, v lying in blocks[blockOf[v]]; vector j's lowest member
	// is low[j], ascending in index, and its orbit vorbit[j].
	blocks  []uint64
	blockOf [64]int8
	low     []uint64
	vorbit  []int32
	// count is ScanRange's scratch: one member count per orbit.
	count []int64

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

// ScanGenerators returns the automorphism generators a scan of g at f builds
// its orbits from: g.AutomorphismGenerators(graph.AutSearchBudget) where
// orbits apply — f > 0, since f = 0 has one fault set and nothing to share,
// and n ≤ 62, since orbits rank one-word masks through binomTable — and
// none elsewhere.
func ScanGenerators(g *graph.Graph, f int) [][]int {
	if f <= 0 || g.N() > 62 {
		return nil
	}
	return g.AutomorphismGenerators(graph.AutSearchBudget)
}

// NewShardScanner builds the orbits of (g, f, threshold) from
// ScanGenerators(g, f).
func NewShardScanner(g *graph.Graph, f, threshold int) (*ShardScanner, error) {
	return NewShardScannerWith(g, f, threshold, ScanGenerators(g, f))
}

// NewShardScannerWith builds the orbits of (g, f, threshold) from gens, which
// need not come from this process: a distributed worker passes the
// generators its coordinator shipped. The orbits of any subgroup of Aut(G)
// are sound, so it takes any set of at most n−1 automorphisms of a graph of
// n ≤ 62 nodes — at most as many as the search returns — and refuses
// anything else with an error before building an orbit. Two scanners built
// from the same graph and generators have the same Spans.
func NewShardScannerWith(g *graph.Graph, f, threshold int, gens [][]int) (*ShardScanner, error) {
	if err := ValidateScan(g.N(), f, threshold); err != nil {
		return nil, err
	}
	if n := g.N(); len(gens) > 0 && (n > 62 || len(gens) > n-1) {
		return nil, fmt.Errorf("condition: %d automorphism generators on %d nodes: orbits take at most n−1 on n ≤ 62", len(gens), n)
	}
	if err := g.VerifyAutomorphisms(gens); err != nil {
		return nil, fmt.Errorf("condition: %w", err)
	}
	return newShardScanner(g, f, threshold, gens), nil
}

// newShardScanner is NewShardScannerWith past validation.
func newShardScanner(g *graph.Graph, f, threshold int, gens [][]int) *ShardScanner {
	n := g.N()
	s := &ShardScanner{g: g, f: f, threshold: threshold, total: NumFaultSets(n, f), scratch: newInsulationScratch(g)}
	// The conditions ScanGenerators puts on orbits, for generators from
	// elsewhere.
	if f > 0 && n <= 62 {
		s.buildOrbits(gens)
	}
	if s.rep != nil {
		s.memo, s.count = make([]groundResult, len(s.rep)), make([]int64, len(s.rep))
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

// faultSetMask returns fault set i < extent over n ≤ 64 nodes as a mask.
func faultSetMask(n int, i int64) (mask uint64) {
	faultSet(n, i, func(v int) { mask |= 1 << uint(v) })
	return mask
}

// rank is faultSetMask's inverse over n ≤ 62 nodes: the index of fault set
// mask, counted back from the end of its size, C(n−1−v, k−i) for its i-th
// member v from 0.
func rank(n int, mask uint64) int64 {
	k := bits.OnesCount64(mask)
	r := NumFaultSets(n, k) - 1
	for i := 0; mask != 0; mask, i = mask&(mask-1), i+1 {
		r -= binomTable[n-1-bits.TrailingZeros64(mask)][k-i]
	}
	return r
}

// lowest returns the c ≤ |mask| lowest members of mask.
func lowest(mask uint64, c int) (low uint64) {
	for ; c > 0; c-- {
		low |= mask & -mask
		mask &= mask - 1
	}
	return low
}

// twinClasses partitions the nodes into blocks of interchangeable nodes the
// generators certify, as masks, and returns the generators that are not
// transpositions. It joins the two points of every transposition and then
// closes the blocks under the other generators: when v and w share a block,
// so do h(v) and h(w), since h (v w) h⁻¹ = (h(v) h(w)). Every pair in a
// block is then a transposition of ⟨gens⟩, so each block's whole symmetric
// group is, and every generator permutes the blocks (docs/THEORY.md, "Twin
// classes"). Without a transposition among gens it returns no blocks and
// gens itself.
func twinClasses(n int, gens [][]int) (blocks []uint64, rest [][]int) {
	var block [64]int8 // block[v] names v's block by one of its nodes
	for v := range block {
		block[v] = int8(v)
	}
	join := func(v, w int) (joined bool) {
		for u, from, to := 0, block[w], block[v]; u < n && from != to; u++ {
			if block[u] == from {
				block[u], joined = to, true
			}
		}
		return joined
	}
	for _, perm := range gens {
		a, b, moved := -1, -1, 0
		for v, w := range perm {
			if v != w {
				a, b, moved = b, v, moved+1
			}
		}
		if moved == 2 {
			join(a, b)
		} else {
			rest = append(rest, perm)
		}
	}
	if len(rest) == len(gens) {
		return nil, gens
	}
	for changed := true; changed; {
		changed = false
		for _, h := range rest {
			for v := 0; v < n; v++ {
				changed = join(h[v], h[block[v]]) || changed
			}
		}
	}
	var members [64]uint64
	for v := 0; v < n; v++ {
		members[block[v]] |= 1 << uint(v)
	}
	for _, m := range members[:n] {
		if m != 0 {
			blocks = append(blocks, m)
		}
	}
	return blocks, rest
}

// buildOrbits closes the index space under the generators, orbits numbered
// by their lowest index, rep: as count vectors where the generators certify
// twin classes and there are at most √extent vectors (buildVectors), else as
// a table while the extent fits int32; past that, the identity group runs.
func (s *ShardScanner) buildOrbits(gens [][]int) {
	if len(gens) == 0 {
		return
	}
	if blocks, rest := twinClasses(s.g.N(), gens); blocks != nil && s.buildVectors(blocks, rest) {
		return
	}
	if s.total <= math.MaxInt32 {
		s.buildTable(gens)
	}
}

// buildTable labels every index with its orbit.
func (s *ShardScanner) buildTable(gens [][]int) {
	s.orbit = make([]int32, s.total)
	seed := uint64(0)
	s.closure(s.orbit, gens, func(int) uint64 {
		m := seed
		seed = nextFaultSet(s.g.N(), seed)
		return m
	}, func(m uint64) int { return int(rank(s.g.N(), m)) })
}

// buildVectors makes the orbits of a group whose twin classes partition the
// nodes into blocks and whose other generators are gens count vectors: the
// fault sets with |F ∩ B| = c_B for every block B are one orbit of the
// blocks' symmetric groups, whose lowest member takes the c_B lowest nodes
// of each B (docs/THEORY.md, "Twin classes"). It reports false, having built
// nothing, when the vectors outnumber √extent, where a table is as cheap.
func (s *ShardScanner) buildVectors(blocks []uint64, gens [][]int) bool {
	var low []uint64
	var walk func(b int, mask uint64, left int) bool
	walk = func(b int, mask uint64, left int) bool {
		if b == len(blocks) {
			low = append(low, mask)
			return int64(len(low)) <= s.total/int64(len(low))
		}
		for c := 0; c <= min(left, bits.OnesCount64(blocks[b])); c++ {
			if !walk(b+1, mask|lowest(blocks[b], c), left-c) {
				return false
			}
		}
		return true
	}
	if !walk(0, 0, s.f) {
		return false
	}
	// Each vector's lowest member is ranked once: ranks[j] is low[j]'s index.
	n := s.g.N()
	type vector struct {
		rank int64
		low  uint64
	}
	vs := make([]vector, len(low))
	for j, m := range low {
		vs[j] = vector{rank(n, m), m}
	}
	slices.SortFunc(vs, func(a, b vector) int { return cmp.Compare(a.rank, b.rank) })
	ranks := make([]int64, len(vs))
	for j, v := range vs {
		low[j], ranks[j] = v.low, v.rank
	}
	s.blocks, s.low, s.vorbit = blocks, low, make([]int32, len(low))
	for b, m := range blocks {
		for ; m != 0; m &= m - 1 {
			s.blockOf[bits.TrailingZeros64(m)] = int8(b)
		}
	}
	s.closure(s.vorbit, gens, func(j int) uint64 { return low[j] }, func(m uint64) int {
		j, _ := slices.BinarySearch(ranks, rank(n, m))
		return j
	})
	return true
}

// closure labels the items, fault sets seed(i) ascending in index, with
// their orbits under gens at label[at(item)]: an item unlabelled in its turn
// opens an orbit with its index as rep, and every image of it — on count
// vectors, the lowest member of the image's vector — gets that label.
func (s *ShardScanner) closure(label []int32, gens [][]int, seed func(int) uint64, at func(uint64) int) {
	for i := range label {
		label[i] = -1
	}
	var stack []uint64
	for i := range label {
		m := seed(i)
		if label[at(m)] >= 0 {
			continue
		}
		o := int32(len(s.rep))
		s.rep = append(s.rep, rank(s.g.N(), m))
		for stack, label[at(m)] = append(stack[:0], m), o; len(stack) > 0; {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, perm := range gens {
				var img uint64
				for r := m; r != 0; r &= r - 1 {
					img |= 1 << uint(perm[bits.TrailingZeros64(r)])
				}
				for _, blk := range s.blocks {
					img = img&^blk | lowest(blk, bits.OnesCount64(img&blk))
				}
				if j := at(img); label[j] < 0 {
					label[j] = o
					stack = append(stack, img)
				}
			}
		}
	}
}

// below returns how many fault sets of vector j lie below fault set R, of
// size k, in the canonical order: all of them when j's size is below k, none
// above it. Within R's size a set S lies below R where it leaves R's
// ascending members at a node u ∉ R below R's next one, so it counts, for
// each such u, the sets that share R's members below u, take u, and fill
// the rest of every block B's count from B's nodes above u: a product of
// binomials over the blocks.
func (s *ShardScanner) below(j int, R uint64, k int) (count int64) {
	var need [64]int8
	size := int64(1)
	for b, blk := range s.blocks {
		need[b] = int8(bits.OnesCount64(s.low[j] & blk))
		size *= binom(bits.OnesCount64(blk), int(need[b]))
	}
	switch km := bits.OnesCount64(s.low[j]); {
	case km < k:
		return size
	case km > k:
		return 0
	}
	for u := 0; R>>uint(u) != 0; u++ {
		b := s.blockOf[u]
		if R&(1<<uint(u)) != 0 {
			if need[b]--; need[b] < 0 {
				break // no set of vector j shares R's members through u
			}
			continue
		}
		if need[b] == 0 {
			continue
		}
		need[b]--
		p := int64(1)
		for c, blk := range s.blocks {
			p *= binom(bits.OnesCount64(blk>>uint(u+1)), int(need[c]))
		}
		need[b]++
		count += p
	}
	return count
}

// members sets c[o] to the number of orbit o's members in [lo, hi): from
// the table, or by below on count vectors.
func (s *ShardScanner) members(c []int64, lo, hi int64) {
	clear(c)
	if s.orbit != nil {
		for _, o := range s.orbit[lo:hi] {
			c[o]++
		}
		return
	}
	for _, end := range [2]struct{ r, sign int64 }{{hi, 1}, {lo, -1}} {
		R, k := uint64(0), s.f+1 // the extent
		if end.r < s.total {
			R = faultSetMask(s.g.N(), end.r)
			k = bits.OnesCount64(R)
		}
		for j, o := range s.vorbit {
			c[o] += end.sign * s.below(j, R, k)
		}
	}
}

// firstMember returns orbit o's lowest index in [lo, hi), where it has one,
// by bisection on the number of o's members in a range.
func (s *ShardScanner) firstMember(o int, lo, hi int64) int64 {
	c := make([]int64, len(s.rep))
	for lo+1 < hi { // o's first member at or above the lo asked for is in [lo, hi)
		mid := lo + (hi-lo)/2
		if s.members(c, lo, mid); c[o] > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// NumFaultSets returns the enumeration's extent.
func (s *ShardScanner) NumFaultSets() int64 { return s.total }

// Spans counts an index space in spans, the unit the local check walks and
// the distributed coordinator leases: the span from index lo ends just past
// the first orbit representative at or above lo, or at the extent past the
// last one. Under the identity group every index is its own orbit, so a span
// is one fault set, and the zero Spans counts so over an unbounded space.
type Spans struct {
	rep   []int64 // the representatives, ascending; nil under the identity group
	total int64
}

// Spans returns the spans of the scanner's index space.
func (s *ShardScanner) Spans() Spans { return Spans{rep: s.rep, total: s.total} }

// orbitAt returns the first orbit whose representative lies at or above
// index i, the orbit whose span holds i: i itself under the identity group.
func (sp Spans) orbitAt(i int64) int64 {
	if sp.rep == nil {
		return i
	}
	return int64(sort.Search(len(sp.rep), func(o int) bool { return sp.rep[o] >= i }))
}

// End returns the index just past the k-th span from index lo, or lo for
// k ≤ 0: lo+k under the identity group, the extent past the last orbit.
func (sp Spans) End(lo, k int64) int64 {
	switch {
	case k <= 0:
		return lo
	case sp.rep == nil:
		return lo + min(k, math.MaxInt64-lo)
	}
	if o := sp.orbitAt(lo); k <= int64(len(sp.rep))-o {
		return sp.rep[o+k-1] + 1
	}
	return sp.total
}

// Count returns the number of spans that [lo, hi) meets: hi−lo under the
// identity group.
func (sp Spans) Count(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	return sp.orbitAt(hi-1) - sp.orbitAt(lo) + 1
}

// repOf returns orbit o's representative; past the last orbit, an index at
// or past the extent.
func (s *ShardScanner) repOf(o int64) int64 {
	switch {
	case s.rep == nil:
		return o
	case o < int64(len(s.rep)):
		return s.rep[o]
	}
	return s.total
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

// ScanRange decides fault sets [lo, hi) in canonical order — the checker's
// one range loop, which CheckScan runs span by span and a distributed worker
// runs once per report — and stops at the first violating index, as the
// sequential scan does; where there are orbits, by counting (scanOrbits).
// Cancellation is checked by a non-blocking receive on ctx.Done(), never
// inside the candidate enumeration: between fault sets under the identity
// group, else at the start and between ground scans. A canceled scan returns
// its error together with the satisfied prefix [lo, lo+Completed) it got
// through.
func (s *ShardScanner) ScanRange(ctx context.Context, lo, hi int64) (RangeResult, error) {
	res := RangeResult{Violation: -1}
	if lo < 0 || hi < lo || hi > s.total {
		return res, fmt.Errorf("condition: scan range [%d, %d) outside [0, %d)", lo, hi, s.total)
	}
	if s.rep != nil {
		return s.scanOrbits(ctx, lo, hi)
	}
	done := ctx.Done()
	for i := lo; i < hi; i++ {
		select {
		case <-done:
			return res, canceledAt(ctx, i)
		default:
		}
		var d groundResult
		if s.memo != nil {
			d = s.memo[i-s.windowStart] // a parallel check's window
		}
		if !d.done {
			d = s.scanGround(s.scratch, i)
		}
		if d.witness != nil {
			res.Violation, res.Witness, res.Partial = i, d.witness, d.cc
			return res, nil
		}
		res.Completed++
		res.Satisfied.Add(d.cc)
	}
	return res, nil
}

// canceledAt is ScanRange's error for a scan canceled at fault set i.
func canceledAt(ctx context.Context, i int64) error {
	return fmt.Errorf("condition: shard scan canceled at fault set %d: %w", i, context.Cause(ctx))
}

// scanOrbits is ScanRange over orbits. It counts each orbit's members in
// [lo, hi) and settles the orbits that have some in ascending order of
// representative, scanning the ground of each one not yet decided, once per
// scanner. The satisfied prefix [lo, x) ends at the lowest member at or
// above lo of a violating orbit, scanned on its own ground unless it is the
// representative, so the witness names its own F; its counters are
// Σ_o delta_o × (o's members in [lo, x)). A cancellation leaves it empty.
func (s *ShardScanner) scanOrbits(ctx context.Context, lo, hi int64) (RangeResult, error) {
	res := RangeResult{Violation: -1}
	done := ctx.Done()
	select {
	case <-done:
		return res, canceledAt(ctx, lo)
	default:
	}
	s.members(s.count, lo, hi)
	x, viol := hi, -1
	for o, rep := range s.rep {
		r := &s.memo[o]
		if rep >= x || s.count[o] == 0 || r.done && r.witness == nil {
			continue
		}
		if !r.done {
			select {
			case <-done:
				return res, canceledAt(ctx, max(lo, rep))
			default:
			}
			*r = s.scanGround(s.scratch, rep)
		}
		if r.witness == nil {
			continue
		}
		if first := s.firstMember(o, lo, hi); first < x {
			x, viol = first, o
		}
	}
	if x < hi {
		s.members(s.count, lo, x)
	}
	res.Completed = x - lo
	for o, c := range s.count {
		res.Satisfied.Add(s.memo[o].cc.times(c))
	}
	if viol >= 0 {
		d := s.memo[viol]
		if x != s.rep[viol] {
			d = s.scanGround(s.scratch, x)
		}
		res.Violation, res.Witness, res.Partial = x, d.witness, d.cc
	}
	return res, nil
}

// scanWindow scans the window of windowPerWorker·workers orbits whose
// representatives lie at or above index lo into the memo, on workers
// goroutines, and returns once they are done. The window ends at hi, just
// past its last orbit's representative (the extent past the last orbit), as
// check's spans do, so every index in [lo, hi) belongs to a window orbit or
// to one below lo: an earlier window's, or one whose representative lies in
// a resumed prefix, which ScanRange scans itself. Workers claim orbits in
// ascending order; they stop when ctx is done, and at a representative above
// the lowest violation found so far, since the spans stop at or before that
// one.
func (s *ShardScanner) scanWindow(ctx context.Context, lo int64, workers int) (hi int64) {
	sp := s.Spans()
	first := sp.orbitAt(lo)
	end := first + int64(windowPerWorker*workers) // orbits [first, end)
	hi = min(sp.End(lo, end-first), s.total)
	if s.rep == nil {
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
				o := next.Add(1) - 1
				i := s.repOf(o)
				if i >= hi || i > minViol.Load() {
					return
				}
				res := s.scanGround(scratch, i)
				if res.witness != nil {
					for b := minViol.Load(); i < b && !minViol.CompareAndSwap(b, i); b = minViol.Load() {
					}
				}
				s.memo[o-s.windowStart] = res
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
		sp  = s.Spans()
		err error
	)
	for lo := skip; lo < s.total && err == nil && rr.Violation < 0; {
		end := s.total
		if workers > 1 {
			end = s.scanWindow(ctx, lo, workers)
		}
		for ; lo < end && err == nil && rr.Violation < 0; lo += rr.Completed {
			hi := min(sp.End(lo, 1), end)
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
	if s.rep == nil {
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
