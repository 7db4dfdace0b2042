package graph

import "math/bits"

// AutSearchBudget is the number of individualise-and-refine steps one
// extension of AutomorphismGenerators may spend before giving up on its
// image. A descent that never backtracks needs fewer than n ≤ 64 steps.
const AutSearchBudget = 256

// maxAutOrder is the largest order the search handles: one word per cell.
const maxAutOrder = 64

// cells is an ordered partition of the nodes, the search's only state. The
// cell occupying positions [s, s+|cell|) of the order is the mask cell[s],
// and starts has bit s set for exactly those s; splitting a cell keeps its
// fragments inside its own positions, so every other cell keeps its name.
// trace hashes the splits made so far: two partitions reached from
// automorphic choices have split identically and carry the same trace.
type cells struct {
	cell   [maxAutOrder]uint64
	starts uint64
	trace  uint64
}

// autSearch holds the adjacency masks and the step budget of one search.
type autSearch struct {
	n       int
	in, out [maxAutOrder]uint64
	steps   int // budget left in the current extension
}

func (a *autSearch) discrete(p *cells) bool { return bits.OnesCount64(p.starts) == a.n }

// target returns the position of the first cell with more than one member.
func (a *autSearch) target(p *cells) int {
	for st := p.starts; st != 0; st &= st - 1 {
		x := bits.TrailingZeros64(st)
		if c := p.cell[x]; c&(c-1) != 0 {
			return x
		}
	}
	return -1
}

// refine splits cells until every node of a cell has the same number of in-
// and out-neighbours in each cell queued as a splitter (queue holds cell
// positions; fragments of a split cell are queued in turn). Every decision
// depends on positions and counts only, never on node ids, so refining the
// image of a partition under an automorphism yields the image of the
// refinement, cell for cell.
func (a *autSearch) refine(p *cells, queue uint64) {
	var key [maxAutOrder]uint16
	for queue != 0 {
		s := bits.TrailingZeros64(queue)
		queue &^= 1 << uint(s)
		splitter := p.cell[s]
		for st := p.starts; st != 0; st &= st - 1 {
			x := bits.TrailingZeros64(st)
			members := p.cell[x]
			if members&(members-1) == 0 {
				continue
			}
			lo, hi := uint16(1<<16-1), uint16(0)
			for m := members; m != 0; m &= m - 1 {
				v := bits.TrailingZeros64(m)
				k := uint16(bits.OnesCount64(a.in[v]&splitter))<<8 | uint16(bits.OnesCount64(a.out[v]&splitter))
				key[v] = k
				if k < lo {
					lo = k
				}
				if k > hi {
					hi = k
				}
			}
			if lo == hi {
				continue
			}
			// Fragments take the cell's positions in ascending key order.
			pos := x
			for rest := members; rest != 0; {
				min := uint16(1<<16 - 1)
				for m := rest; m != 0; m &= m - 1 {
					if k := key[bits.TrailingZeros64(m)]; k < min {
						min = k
					}
				}
				var frag uint64
				for m := rest; m != 0; m &= m - 1 {
					if v := bits.TrailingZeros64(m); key[v] == min {
						frag |= 1 << uint(v)
					}
				}
				rest &^= frag
				size := bits.OnesCount64(frag)
				p.cell[pos] = frag
				p.starts |= 1 << uint(pos)
				queue |= 1 << uint(pos)
				p.trace = (p.trace ^ (uint64(pos)<<24 | uint64(min)<<8 | uint64(size))) * 0x100000001b3
				pos += size
			}
		}
	}
}

// individualise makes v, a member of the cell at x, a cell of its own ahead
// of the rest and refines. On an equitable partition the singleton is the
// only splitter needed: counts into the rest follow from counts into both.
func (a *autSearch) individualise(p *cells, x, v int) {
	rest := p.cell[x] &^ (1 << uint(v))
	p.cell[x] = 1 << uint(v)
	p.cell[x+1] = rest
	p.starts |= 1 << uint(x+1)
	p.trace = (p.trace ^ uint64(x)) * 0x100000001b3
	a.refine(p, 1<<uint(x))
}

// step spends one unit of budget on individualising v in right and reports
// whether right still splits the way left did.
func (a *autSearch) step(right *cells, x, v int, left *cells) bool {
	if a.steps == 0 {
		return false
	}
	a.steps--
	a.individualise(right, x, v)
	return right.starts == left.starts && right.trace == left.trace
}

// extend looks for an automorphism that takes levels[k] to right cell by
// cell, descending the first path on the left and trying every member of
// the matching cell on the right. It fills perm on success.
func (a *autSearch) extend(levels []cells, k int, right *cells, perm []int) bool {
	left := &levels[k]
	if a.discrete(left) {
		for st := left.starts; st != 0; st &= st - 1 {
			s := bits.TrailingZeros64(st)
			perm[bits.TrailingZeros64(left.cell[s])] = bits.TrailingZeros64(right.cell[s])
		}
		return a.isAutomorphism(perm)
	}
	x := a.target(left)
	for m := right.cell[x]; m != 0 && a.steps > 0; m &= m - 1 {
		next := *right
		if a.step(&next, x, bits.TrailingZeros64(m), &levels[k+1]) && a.extend(levels, k+1, &next, perm) {
			return true
		}
	}
	return false
}

// isAutomorphism reports whether the bijection perm maps every
// out-neighbourhood onto the out-neighbourhood of the image.
func (a *autSearch) isAutomorphism(perm []int) bool {
	for u := 0; u < a.n; u++ {
		var img uint64
		for m := a.out[u]; m != 0; m &= m - 1 {
			img |= 1 << uint(perm[bits.TrailingZeros64(m)])
		}
		if img != a.out[perm[u]] {
			return false
		}
	}
	return true
}

// AutomorphismGenerators returns permutations of the node ids — perm[v] is
// the image of v — that are automorphisms of g. They generate a subgroup of
// Aut(G), not necessarily all of it: callers may rely on each permutation
// preserving the edge set and on nothing else. Graphs with more than 64
// nodes, and graphs whose colour refinement tells all nodes apart, get nil.
//
// The search refines the partition by (in, out) neighbour counts, fixes a
// base b₁, b₂, … by individualising the first member of the first
// non-singleton cell until the partition is discrete, and then, from the
// deepest base point up, looks for an automorphism fixing b₁…b_{d−1} that
// moves b_d to each other member of its cell not already in b_d's orbit
// under the generators found so far. Every success merges two point orbits,
// so at most n−1 generators come back. Each such extension may spend budget
// (AutSearchBudget outside tests) individualise-and-refine steps and counts
// as not found beyond that.
func (g *Graph) AutomorphismGenerators(budget int) [][]int {
	n := g.n
	if n < 2 || n > maxAutOrder {
		return nil
	}
	a := &autSearch{n: n}
	for v := 0; v < n; v++ {
		for _, u := range g.in[v] {
			a.in[v] |= 1 << uint(u)
		}
		for _, w := range g.out[v] {
			a.out[v] |= 1 << uint(w)
		}
	}
	levels := make([]cells, 1, 4)
	levels[0].cell[0] = ^uint64(0) >> uint(maxAutOrder-n)
	levels[0].starts = 1
	a.refine(&levels[0], 1)
	var base []int
	for d := 0; !a.discrete(&levels[d]); d++ {
		p := levels[d]
		x := a.target(&p)
		v := bits.TrailingZeros64(p.cell[x])
		a.individualise(&p, x, v)
		base = append(base, v)
		levels = append(levels, p)
	}

	// orbit is a union-find forest over the nodes: the point orbits of the
	// group generated so far.
	var orbit [maxAutOrder]uint8
	for v := range orbit {
		orbit[v] = uint8(v)
	}
	find := func(v int) int {
		for int(orbit[v]) != v {
			orbit[v] = orbit[orbit[v]]
			v = int(orbit[v])
		}
		return v
	}
	var gens [][]int
	perm := make([]int, n)
	for d := len(base) - 1; d >= 0; d-- {
		// Generators found deeper fix b₁…b_d, so the orbits they span are
		// orbits of the stabiliser searched at this level.
		x := a.target(&levels[d])
		for m := levels[d].cell[x] &^ (1 << uint(base[d])); m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if find(c) == find(base[d]) {
				continue
			}
			a.steps = budget
			right := levels[d]
			if !a.step(&right, x, c, &levels[d+1]) || !a.extend(levels, d+1, &right, perm) {
				continue
			}
			gens = append(gens, append([]int(nil), perm...))
			for v, w := range perm {
				if rv, rw := find(v), find(w); rv != rw {
					orbit[rv] = uint8(rw)
				}
			}
		}
	}
	return gens
}
