package node

import (
	"testing"

	"iabc/internal/hashrand"
)

// TestSeqOfNoCollisionsBeyondEpochMask pins the transmission-identity
// contract: distinct (kind, round, epoch, link) tuples map to distinct Seqs
// even when epochs pass the 16-bit boundary the old bit-packing masked with.
// Under the packed encoding, epoch e and e+65536 produced identical Seqs, so
// after 65536 epochs the chaos layer re-drew the same per-Seq fault
// decisions and a dropped message stayed dropped on every later retry. Asks
// and values share the grid, so an ask never takes a value's Seq either.
func TestSeqOfNoCollisionsBeyondEpochMask(t *testing.T) {
	// A grid straddling the old mask boundaries on both epoch and link,
	// including the exact aliasing pairs (e, e+65536) and (link, link+65536).
	rounds := []int{0, 1, 7, 1 << 20}
	epochs := []int{0, 1, 2, 65535, 65536, 65537, 2 * 65536, 3*65536 + 1}
	links := []int{0, 1, 63, 65535, 65536, 65537}
	type tuple struct {
		ask         bool
		r, ep, link int
	}
	seen := make(map[uint64]tuple, 2*len(rounds)*len(epochs)*len(links))
	for _, ask := range []bool{false, true} {
		for _, r := range rounds {
			for _, ep := range epochs {
				for _, link := range links {
					seq := seqOf(ask, r, ep, link)
					if prev, dup := seen[seq]; dup {
						t.Fatalf("seqOf collision: %+v and %+v both map to %#x", prev, tuple{ask, r, ep, link}, seq)
					}
					seen[seq] = tuple{ask, r, ep, link}
				}
			}
		}
	}
}

// TestSeqOfAskDomain pins how the two kinds are kept apart: values hash
// under key 0, exactly as they did before asks existed, so chaos schedules
// keyed on values are unchanged, and asks under key 1.
func TestSeqOfAskDomain(t *testing.T) {
	if got, want := seqOf(false, 3, 2, 1), hashrand.Key(0, 3, 2, 1); got != want {
		t.Fatalf("value Seq %#x, want %#x", got, want)
	}
	if got, want := seqOf(true, 3, 2, 1), hashrand.Key(1, 3, 2, 1); got != want {
		t.Fatalf("ask Seq %#x, want %#x", got, want)
	}
}

// TestSeqOfDeterministic: equal tuples must map to equal Seqs — the chaos
// layer's reproducibility keys off it.
func TestSeqOfDeterministic(t *testing.T) {
	if seqOf(false, 3, 70000, 5) != seqOf(false, 3, 70000, 5) || seqOf(true, 3, 70000, 5) != seqOf(true, 3, 70000, 5) {
		t.Fatal("seqOf is not a pure function")
	}
}
