package condition

import (
	"math/bits"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// insulationScratch is the exact checker's hot-path workspace: the candidate
// walk of findDisjointInsulatedPair runs on it as one kernel over word masks.
//
// setGround numbers the ground's m members 0…m−1 in ascending node order —
// their positions — and stores, per position p, an in-row of w = ⌈m/64⌉
// words: the positions of N⁻(members[p]) ∩ ground. Its popcount is
//
//	base[p] = |N⁻_v ∩ ground|,  v = members[p],
//
// fixed across the ground's whole candidate enumeration, so the insulated
// test of Definition 1, |N⁻_v ∩ (ground−L)| = base[p] − |N⁻_v ∩ L|, is one
// popcount of the in-row against L's row per member. Every set the walk
// keeps — the admitted pool's suffixes, the prefix cur, the peel's result
// and the empty-complement memo — is such a row over positions, and since
// positions keep node order, so does the visiting order. Rows map back to
// node ids only when a witness is built.
//
// Every buffer is sized once per graph, for a ground of all n nodes — the
// memo's on its first entry, since most scans record none — so a ground
// scan allocates nothing but its witness. One scratch serves one goroutine;
// a parallel CheckScan gives each worker its own.
type insulationScratch struct {
	g *graph.Graph
	// pos[v] is node v's position in the current ground, −1 outside it;
	// members[p] is the node at position p.
	pos     []int
	members []int
	// w is the current ground's row width in words. Row p of a row buffer
	// is buf[p*w : (p+1)*w].
	w int
	// in holds the in-rows, base their popcounts.
	in   []uint64
	base []int
	// pool lists the positions the degree bound admits at the walk's size,
	// ascending; suf row i = {pool[i:]}, the positions a prefix ending at
	// pool index i−1 can still draw on.
	pool []int
	suf  []uint64
	// idx holds the pool indices of the walk's prefix, cur its row.
	idx []int
	cur []uint64
	// tested counts the full-size candidates given the insulation test, the
	// lookahead's residue; tests pin its pruning power with it.
	tested int64
	// res is the peel's row; cnt and queue its worklist state.
	res   []uint64
	cnt   []int
	queue []int
	// dead memoizes maximal insulated subsets that peeled to ∅: its rows are
	// candidates L (of the current ground) for which the
	// maximal insulated subset of ground−L was computed and found empty.
	// Because that subset is monotone in its sub argument (every insulated
	// subset of a smaller sub is an insulated subset of the larger one), any
	// later candidate L' ⊇ L has an empty complement too, and its peel is
	// skipped — a memo hit. Dominated entries are never stored (a superset
	// of a stored entry is already a hit), and the table is capped at
	// deadCap rows to bound the subset scans.
	//
	// The memo is valid only relative to the current ground: insulation
	// w.r.t. a smaller ground is a weaker property, so an empty result under
	// one ground proves nothing under another — the fault-set enumeration
	// visits shrinking grounds, which is exactly the unsound direction.
	// setGround therefore clears the table; what persists across fault sets
	// is the storage and the accumulated hit count, not the entries.
	dead []uint64
}

// deadCap bounds the empty-complement memo. Entries beyond the cap are
// dropped (losing potential hits, never correctness); 64 subset tests of a
// row or two cost less than one O(edges) peel, so the scan stays profitable.
const deadCap = 64

func newInsulationScratch(g *graph.Graph) *insulationScratch {
	n := g.N()
	w := (n + 63) / 64
	return &insulationScratch{
		g:       g,
		pos:     make([]int, n),
		members: make([]int, 0, n),
		in:      make([]uint64, n*w),
		base:    make([]int, n),
		pool:    make([]int, 0, n),
		suf:     make([]uint64, (n+1)*w),
		idx:     make([]int, n),
		cur:     make([]uint64, w),
		res:     make([]uint64, w),
		cnt:     make([]int, n),
		queue:   make([]int, 0, n),
	}
}

// setGround numbers ground's members and builds their in-rows.
func (s *insulationScratch) setGround(ground nodeset.Set) {
	for v := range s.pos {
		s.pos[v] = -1
	}
	s.members = s.members[:0]
	ground.ForEach(func(v int) bool {
		s.pos[v] = len(s.members)
		s.members = append(s.members, v)
		return true
	})
	w := (len(s.members) + 63) / 64
	s.w = w
	for p, v := range s.members {
		row := s.in[p*w : (p+1)*w]
		clear(row)
		for _, u := range s.g.InView(v) {
			if q := s.pos[u]; q >= 0 {
				row[q>>6] |= 1 << (q & 63)
			}
		}
		s.base[p] = ones(row)
	}
	s.dead = s.dead[:0]
}

// admit fills pool with the positions the degree bound admits at candidate
// size k — base[p] < threshold+k−1, see findDisjointInsulatedPair — in
// ascending order, builds their suffix rows, and returns len(pool).
func (s *insulationScratch) admit(k, threshold int) int {
	s.pool = s.pool[:0]
	for p, b := range s.base[:len(s.members)] {
		if b < threshold+k-1 {
			s.pool = append(s.pool, p)
		}
	}
	q, w := len(s.pool), s.w
	clear(s.suf[q*w : (q+1)*w])
	for i := q - 1; i >= 0; i-- {
		row := s.suf[i*w : (i+1)*w]
		copy(row, s.suf[(i+1)*w:(i+2)*w])
		p := s.pool[i]
		row[p>>6] |= 1 << (p & 63)
	}
	return q
}

// viable reports whether the walk's prefix cur, at pool indices idx, can
// still be completed to an insulated set by left more members drawn from
// pool[i+1:], i being its last index. A member v of an insulated L needs
// |N⁻_v ∩ L| ≥ base[v] − threshold + 1; at most left more in-neighbors can
// join it, and only from that suffix, so v rules the prefix out when
//
//	|N⁻_v ∩ cur| + min(left, |N⁻_v ∩ pool[i+1:]|) < base[v] − threshold + 1.
//
// At left = 0 this is exactly the insulation test of cur.
func (s *insulationScratch) viable(idx []int, left, threshold int) bool {
	w, next := s.w, idx[len(idx)-1]+1
	if w == 1 {
		cur, suf := s.cur[0], s.suf[next]
		for _, i := range idx {
			p := s.pool[i]
			row, need := s.in[p], s.base[p]-threshold+1
			have := bits.OnesCount64(row & cur)
			if have >= need {
				continue
			}
			if have+left < need || have+bits.OnesCount64(row&suf) < need {
				return false
			}
		}
		return true
	}
	cur, suf := s.cur[:w], s.suf[next*w:(next+1)*w]
	for _, i := range idx {
		p := s.pool[i]
		row, need := s.in[p*w:(p+1)*w], s.base[p]-threshold+1
		have := andCount(row, cur)
		if have >= need {
			continue
		}
		if have+left < need || have+andCount(row, suf) < need {
			return false
		}
	}
	return true
}

// knownDead reports whether some memoized candidate is a subset of cur —
// proving, by monotonicity, that the maximal insulated subset of ground−cur
// is empty without peeling it.
func (s *insulationScratch) knownDead() bool {
	w, cur := s.w, s.cur[:s.w]
	for d := 0; d < len(s.dead); d += w {
		if subset(s.dead[d:d+w], cur) {
			return true
		}
	}
	return false
}

// recordDead memoizes cur, whose complement peeled to ∅. Candidates arrive
// in ascending size, so no new entry can strictly dominate a stored one;
// knownDead screens out the supersets before they get here.
func (s *insulationScratch) recordDead() {
	if s.dead == nil {
		s.dead = make([]uint64, 0, deadCap*len(s.cur))
	}
	if len(s.dead) < deadCap*s.w {
		s.dead = append(s.dead, s.cur[:s.w]...)
	}
}

// peelComplement fills res with ground−cur and peels it (maximalInsulated).
func (s *insulationScratch) peelComplement(threshold int) []uint64 {
	res := s.res[:s.w]
	for j, c := range s.cur[:s.w] {
		res[j] = ^c
	}
	if r := len(s.members) % 64; r != 0 {
		res[s.w-1] &= 1<<r - 1
	}
	return s.maximalInsulated(threshold)
}

// maximalInsulated peels res, in place, to its unique maximal subset that is
// insulated with respect to the ground, and returns it: a position joins
// the removal queue the moment its in-degree from outside the shrinking set
// reaches threshold. The fixpoint is the same as iterative deletion's (the
// maximal insulated subset is unique, so removal order is immaterial), at
// O(edges) instead of O(iterations · m · w).
func (s *insulationScratch) maximalInsulated(threshold int) []uint64 {
	w, res := s.w, s.res[:s.w]
	q := s.queue[:0]
	for j, word := range res {
		for ; word != 0; word &= word - 1 {
			p := j<<6 | bits.TrailingZeros64(word)
			s.cnt[p] = andCount(s.in[p*w:(p+1)*w], res)
			if s.base[p]-s.cnt[p] >= threshold {
				q = append(q, p)
			}
		}
	}
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		if res[u>>6]&(1<<(u&63)) == 0 {
			continue
		}
		res[u>>6] &^= 1 << (u & 63)
		for _, v := range s.g.OutView(s.members[u]) {
			p := s.pos[v]
			if p < 0 || res[p>>6]&(1<<(p&63)) == 0 {
				continue
			}
			s.cnt[p]--
			if s.base[p]-s.cnt[p] == threshold {
				q = append(q, p)
			}
		}
	}
	s.queue = q[:0]
	return res
}

// nodes returns the node ids at row's positions as a set over the graph.
func (s *insulationScratch) nodes(row []uint64) nodeset.Set {
	set := nodeset.New(s.g.N())
	for j, word := range row {
		for ; word != 0; word &= word - 1 {
			set.Add(s.members[j<<6|bits.TrailingZeros64(word)])
		}
	}
	return set
}

// ones returns the number of bits set in row.
func ones(row []uint64) int {
	c := 0
	for _, x := range row {
		c += bits.OnesCount64(x)
	}
	return c
}

// andCount returns |a ∩ b| for two rows of one width.
func andCount(a, b []uint64) int {
	c := 0
	for j, x := range a {
		c += bits.OnesCount64(x & b[j])
	}
	return c
}

// subset reports whether a ⊆ b for two rows of one width.
func subset(a, b []uint64) bool {
	for j, x := range a {
		if x&^b[j] != 0 {
			return false
		}
	}
	return true
}
