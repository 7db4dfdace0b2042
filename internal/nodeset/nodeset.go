// Package nodeset provides compact bitsets over node identifiers.
//
// A Set holds node IDs in the range [0, capacity). Sets are the backbone of
// the condition checker in internal/condition: the exponential enumeration
// over partitions of V manipulates millions of sets, so every operation is
// word-parallel and allocation is kept to explicit Clone/New calls.
//
// The zero value of Set is an empty set with capacity 0. Most callers should
// use New to size the set to the graph order.
package nodeset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bitset over node IDs. Operations that combine two sets require
// them to have the same capacity (word count); combining sets built with
// different capacities for the same graph is a programming error and panics.
type Set struct {
	words []uint64
	cap   int
}

// New returns an empty set with capacity for node IDs in [0, capacity).
func New(capacity int) Set {
	if capacity < 0 {
		panic(fmt.Sprintf("nodeset: negative capacity %d", capacity))
	}
	return Set{
		words: make([]uint64, (capacity+wordBits-1)/wordBits),
		cap:   capacity,
	}
}

// FromMembers returns a set with the given capacity containing exactly the
// listed members.
func FromMembers(capacity int, members ...int) Set {
	s := New(capacity)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Decode is FromMembers for a member list read from outside the process: a
// negative capacity or an id outside [0, capacity) is an error, not a panic.
func Decode(capacity int, ids []int) (Set, error) {
	if capacity < 0 {
		return Set{}, fmt.Errorf("nodeset: negative capacity %d", capacity)
	}
	for _, id := range ids {
		if id < 0 || id >= capacity {
			return Set{}, fmt.Errorf("nodeset: id %d out of range [0,%d)", id, capacity)
		}
	}
	return FromMembers(capacity, ids...), nil
}

// Universe returns the full set {0, ..., capacity-1}.
func Universe(capacity int) Set {
	s := New(capacity)
	for w := range s.words {
		s.words[w] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears any bits at positions >= cap that block operations like
// complement from leaking phantom members.
func (s *Set) trim() {
	if r := s.cap % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Cap returns the capacity the set was created with.
func (s Set) Cap() int { return s.cap }

// Add inserts id into the set. It panics if id is out of range.
func (s Set) Add(id int) {
	s.check(id)
	s.words[id/wordBits] |= 1 << uint(id%wordBits)
}

// Remove deletes id from the set. It panics if id is out of range.
func (s Set) Remove(id int) {
	s.check(id)
	s.words[id/wordBits] &^= 1 << uint(id%wordBits)
}

// Contains reports whether id is in the set.
func (s Set) Contains(id int) bool {
	if id < 0 || id >= s.cap {
		return false
	}
	return s.words[id/wordBits]&(1<<uint(id%wordBits)) != 0
}

func (s Set) check(id int) {
	if id < 0 || id >= s.cap {
		panic(fmt.Sprintf("nodeset: id %d out of range [0,%d)", id, s.cap))
	}
}

// Count returns the number of members.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), cap: s.cap}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and t contain the same members.
func (s Set) Equal(t Set) bool {
	if s.cap != t.cap {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

func (s Set) sameShape(t Set) {
	if s.cap != t.cap {
		panic(fmt.Sprintf("nodeset: capacity mismatch %d vs %d", s.cap, t.cap))
	}
}

// UnionWith adds every member of t to s (in place).
func (s Set) UnionWith(t Set) {
	s.sameShape(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// IntersectWith removes members of s not in t (in place).
func (s Set) IntersectWith(t Set) {
	s.sameShape(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// DifferenceWith removes every member of t from s (in place).
func (s Set) DifferenceWith(t Set) {
	s.sameShape(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Union returns a new set containing members of s or t.
func (s Set) Union(t Set) Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// Intersect returns a new set containing members of both s and t.
func (s Set) Intersect(t Set) Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Difference returns a new set containing members of s not in t.
func (s Set) Difference(t Set) Set {
	c := s.Clone()
	c.DifferenceWith(t)
	return c
}

// Complement returns the set of IDs in [0, cap) not in s.
func (s Set) Complement() Set {
	c := Set{words: make([]uint64, len(s.words)), cap: s.cap}
	for i, w := range s.words {
		c.words[i] = ^w
	}
	c.trim()
	return c
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s Set) IntersectionCount(t Set) int {
	s.sameShape(t)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// Disjoint reports whether s and t share no members.
func (s Set) Disjoint(t Set) bool {
	s.sameShape(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is in t.
func (s Set) SubsetOf(t Set) bool {
	s.sameShape(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each member in ascending order. If fn returns false,
// iteration stops early.
func (s Set) ForEach(fn func(id int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the members in ascending order.
func (s Set) Members() []int {
	m := make([]int, 0, s.Count())
	s.ForEach(func(id int) bool {
		m = append(m, id)
		return true
	})
	return m
}

// Min returns the smallest member, or -1 if the set is empty.
func (s Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String renders the set as {a, b, c}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// SubsetsAscendingSize enumerates subsets of ground in non-decreasing order
// of size, from size lo to size hi inclusive. The Set passed to fn is reused;
// Clone to retain. Enumeration stops early if fn returns false.
func SubsetsAscendingSize(ground Set, lo, hi int, fn func(Set) bool) {
	SubsetsAscendingSizePruned(ground, lo, hi, nil, nil, fn)
}

// SubsetsAscendingSizePruned is SubsetsAscendingSize with a per-size
// admission filter: before enumerating size-k subsets, admit(id, k) is asked
// once for every ground member, and rejected members are excluded from every
// size-k candidate. Excluding one member prunes its entire combination
// subtree — the C(m−1, k−1) candidates containing it — without visiting any
// of them, which is what makes degree-bound pruning in the condition checker
// pay: the admission scan is O(m) per size while the subtrees it removes are
// exponential.
//
// sized, if non-nil, is called once per size k (before that size's
// enumeration, including sizes whose pool is smaller than k) with the number
// of admitted members and the ground size, so callers can account for the
// candidates never visited: C(total, k) − C(kept, k). A nil admit admits
// every member, reducing to SubsetsAscendingSize with a sized callback.
//
// The admitted pool keeps the ground's ascending member order, so the
// surviving candidates are enumerated in exactly the relative order
// SubsetsAscendingSize would visit them — a caller whose admission filter
// never rejects a member of a "hit" subset sees the same first hit.
func SubsetsAscendingSizePruned(ground Set, lo, hi int, admit func(id, size int) bool, sized func(size, kept, total int), fn func(Set) bool) {
	members := ground.Members()
	if hi > len(members) {
		hi = len(members)
	}
	if lo < 0 {
		lo = 0
	}
	cur := New(ground.cap)
	pool := make([]int, 0, len(members))
	for k := lo; k <= hi; k++ {
		pool = pool[:0]
		for _, id := range members {
			if admit == nil || admit(id, k) {
				pool = append(pool, id)
			}
		}
		if sized != nil {
			sized(k, len(pool), len(members))
		}
		if k > len(pool) {
			continue
		}
		if !combinations(pool, k, cur, fn) {
			return
		}
	}
}

// combinations enumerates all k-subsets of members into cur, calling fn per
// subset. Returns false if fn requested a stop.
func combinations(members []int, k int, cur Set, fn func(Set) bool) bool {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
		cur.Add(members[i])
	}
	defer func() {
		for _, i := range idx {
			if i < len(members) {
				cur.Remove(members[i])
			}
		}
	}()
	if k == 0 {
		return fn(cur)
	}
	if k > len(members) {
		return true
	}
	for {
		if !fn(cur) {
			return false
		}
		// Advance to the next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == len(members)-k+i {
			i--
		}
		if i < 0 {
			return true
		}
		cur.Remove(members[idx[i]])
		idx[i]++
		cur.Add(members[idx[i]])
		for j := i + 1; j < k; j++ {
			cur.Remove(members[idx[j]])
			idx[j] = idx[j-1] + 1
			cur.Add(members[idx[j]])
		}
	}
}
