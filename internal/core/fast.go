package core

import "fmt"

// This file is the allocation-free fast path through the update rules.
//
// The reference implementations (Update, built on Survivors) copy the
// received vector and sort it with reflection-based sort.Slice on every
// call — fine as an oracle, far too slow for the engines, which evaluate
// Z_i for every node every round. The fast path replaces copy+sort with
// quickselect over a caller-owned Scratch buffer: expected O(d) work for
// in-degree d and zero allocations in steady state.
//
// Invariant: for every rule, inputs, and f, UpdateInto returns bit-identical
// results to Update (see TestUpdateIntoMatchesReference). The key is the
// canonical summation order — own state first, then survivors in received
// order — which selection can reproduce without knowing the full sorted
// order: an entry survives iff its (value, sender) key lies strictly between
// the f-th smallest and the f-th largest keys, both found by quickselect.

// Scratch is reusable workspace for the allocation-free update path. The
// zero value is ready to use; the buffer grows to the largest in-degree seen
// and is then reused, so steady-state updates allocate nothing. A Scratch
// must not be shared between goroutines.
type Scratch struct {
	buf []ValueFrom
}

// load copies received into the scratch buffer, growing it if needed.
func (s *Scratch) load(received []ValueFrom) []ValueFrom {
	if cap(s.buf) < len(received) {
		s.buf = make([]ValueFrom, len(received))
	}
	b := s.buf[:len(received)]
	copy(b, received)
	return b
}

// BufferedRule is implemented by rules that support an allocation-free
// update using caller-provided scratch space. UpdateInto must return results
// bit-identical to Update for every input.
type BufferedRule interface {
	UpdateRule
	// UpdateInto computes Update(own, received, f) using s as workspace. It
	// must not retain received or s beyond the call.
	UpdateInto(s *Scratch, own float64, received []ValueFrom, f int) (float64, error)
}

var (
	_ BufferedRule = TrimmedMean{}
	_ BufferedRule = Mean{}
	_ BufferedRule = TrimmedMidpoint{}
)

// Buffered normalises a rule to the BufferedRule seam the engines drive,
// once per run: the identity on rules that implement UpdateInto, and for any
// other rule a wrapper whose UpdateInto ignores the scratch and calls Update
// (same result, Update's allocations).
func Buffered(r UpdateRule) BufferedRule {
	if b, ok := r.(BufferedRule); ok {
		return b
	}
	return updateOnly{r}
}

// updateOnly is Buffered's wrapper for rules without an UpdateInto.
type updateOnly struct{ UpdateRule }

func (u updateOnly) UpdateInto(_ *Scratch, own float64, received []ValueFrom, f int) (float64, error) {
	return u.Update(own, received, f)
}

// validateTrim mirrors Survivors' input checks without constructing its
// error eagerly.
func validateTrim(d, f int) error {
	if f < 0 {
		return fmt.Errorf("core: negative f %d", f)
	}
	min := 2*f + 1
	if f == 0 {
		min = 1
	}
	if d < min {
		return fmt.Errorf("%w: got %d values with f = %d", ErrInsufficientValues, d, f)
	}
	return nil
}

// trimBounds partitions buf so that the f smallest and f largest keys occupy
// buf[:f] and buf[d-f:], and returns the boundary keys: kLow is the f-th
// smallest (rank f−1) and kHigh the f-th largest (rank d−f). An entry of the
// received vector survives trimming iff kLow < key < kHigh in the total
// order. Requires f ≥ 1 and d ≥ 2f+1.
func trimBounds(buf []ValueFrom, f int) (kLow, kHigh ValueFrom) {
	d := len(buf)
	selectKth(buf, f-1)
	selectKth(buf[f:], d-2*f)
	return buf[f-1], buf[d-f]
}

// UpdateInto implements BufferedRule: equation (2) via quickselect, bit-
// identical to Update.
func (TrimmedMean) UpdateInto(s *Scratch, own float64, received []ValueFrom, f int) (float64, error) {
	d := len(received)
	if err := validateTrim(d, f); err != nil {
		return 0, err
	}
	a := Weight(d, f)
	sum := own
	if f == 0 {
		for _, r := range received {
			sum += r.Value
		}
		return a * sum, nil
	}
	kLow, kHigh := trimBounds(s.load(received), f)
	for _, r := range received {
		if less(kLow, r) && less(r, kHigh) {
			sum += r.Value
		}
	}
	return a * sum, nil
}

// SurvivorMask writes, for each entry of received, whether it survives
// f-trimming: mask[k] is true iff received[k] ∈ N*_i[t]. The survivor set is
// identical to Survivors' (same total order, same sender tie-break). len
// of mask must equal len(received). Zero allocations in steady state; the
// matrix engine uses it to materialize each round's row structure.
func (s *Scratch) SurvivorMask(received []ValueFrom, f int, mask []bool) error {
	if len(mask) != len(received) {
		return fmt.Errorf("core: mask length %d != received length %d", len(mask), len(received))
	}
	if err := validateTrim(len(received), f); err != nil {
		return err
	}
	if f == 0 {
		for i := range mask {
			mask[i] = true
		}
		return nil
	}
	kLow, kHigh := trimBounds(s.load(received), f)
	for i, r := range received {
		mask[i] = less(kLow, r) && less(r, kHigh)
	}
	return nil
}

// UpdateInto implements BufferedRule. Mean is already allocation-free.
func (m Mean) UpdateInto(_ *Scratch, own float64, received []ValueFrom, f int) (float64, error) {
	return m.Update(own, received, f)
}

// UpdateInto implements BufferedRule: the surviving extremes are the rank-f
// and rank-(d−f−1) values, read off the partitioned scratch buffer.
func (TrimmedMidpoint) UpdateInto(s *Scratch, own float64, received []ValueFrom, f int) (float64, error) {
	d := len(received)
	if err := validateTrim(d, f); err != nil {
		return 0, err
	}
	lo, hi := own, own
	if f == 0 {
		for _, r := range received {
			if r.Value < lo {
				lo = r.Value
			}
			if r.Value > hi {
				hi = r.Value
			}
		}
		return (lo + hi) / 2, nil
	}
	buf := s.load(received)
	trimBounds(buf, f)
	for _, r := range buf[f : d-f] {
		if r.Value < lo {
			lo = r.Value
		}
		if r.Value > hi {
			hi = r.Value
		}
	}
	return (lo + hi) / 2, nil
}

// selectKth partially sorts buf so that buf[k] holds the rank-k element of
// the total order `less`, every earlier element is no greater, and every
// later element is no smaller. Iterative quickselect with median-of-three
// pivots and an insertion-sort base case: expected O(len(buf)), no
// allocation, deterministic.
func selectKth(buf []ValueFrom, k int) {
	lo, hi := 0, len(buf) // active window [lo, hi)
	for {
		if hi-lo <= 16 {
			insertionSort(buf[lo:hi])
			return
		}
		mid := lo + (hi-lo)/2
		m := medianIndex(buf, lo, mid, hi-1)
		buf[lo], buf[m] = buf[m], buf[lo]
		pivot := buf[lo]
		// Lomuto partition of (lo, hi) around pivot.
		i := lo + 1
		for j := lo + 1; j < hi; j++ {
			if less(buf[j], pivot) {
				buf[i], buf[j] = buf[j], buf[i]
				i++
			}
		}
		p := i - 1
		buf[lo], buf[p] = buf[p], buf[lo]
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
}

// medianIndex returns the index (one of a, b, c) holding the median of the
// three elements.
func medianIndex(buf []ValueFrom, a, b, c int) int {
	if less(buf[b], buf[a]) {
		a, b = b, a
	}
	if less(buf[c], buf[b]) {
		b = c
		if less(buf[b], buf[a]) {
			b = a
		}
	}
	return b
}

// insertionSort fully sorts a small window in place.
func insertionSort(buf []ValueFrom) {
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && less(buf[j], buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
}
