package core

import (
	"math"
	"math/rand"
	"testing"
)

// randReceived builds a received vector with distinct senders and values
// drawn to force plenty of ties (small discrete support) as well as smooth
// draws, exercising the sender tie-break.
func randReceived(r *rand.Rand, d int) []ValueFrom {
	received := make([]ValueFrom, d)
	perm := r.Perm(d * 2) // sparse, unordered sender IDs
	for i := range received {
		var v float64
		switch r.Intn(4) {
		case 0:
			v = float64(r.Intn(3)) // heavy ties
		case 1:
			v = r.NormFloat64() * 1e6
		default:
			v = r.Float64()
		}
		received[i] = ValueFrom{From: perm[i], Value: v}
	}
	return received
}

// TestUpdateIntoMatchesReference is the bit-identicality contract of the
// fast path: for every buffered rule, UpdateInto equals Update exactly —
// not within a tolerance — across random in-degrees, f, tie patterns, and
// sender orders.
func TestUpdateIntoMatchesReference(t *testing.T) {
	rules := []BufferedRule{TrimmedMean{}, Mean{}, TrimmedMidpoint{}}
	rng := rand.New(rand.NewSource(42))
	var scratch Scratch
	for trial := 0; trial < 5000; trial++ {
		f := rng.Intn(4)
		d := 2*f + 1 + rng.Intn(8)
		if f == 0 {
			d = 1 + rng.Intn(9)
		}
		received := randReceived(rng, d)
		own := rng.NormFloat64()
		for _, rule := range rules {
			want, errWant := rule.Update(own, received, f)
			got, errGot := rule.UpdateInto(&scratch, own, received, f)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("trial %d rule %s: error mismatch %v vs %v", trial, rule.Name(), errWant, errGot)
			}
			if errWant == nil && math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("trial %d rule %s (d=%d f=%d): Update=%v UpdateInto=%v (diff %g)",
					trial, rule.Name(), d, f, want, got, want-got)
			}
		}
	}
}

// TestUpdateIntoTieBreakBySender pins the tie-break: with all values equal,
// the trimmed entries are decided purely by sender ID, and the fast path
// must trim the same senders the reference does.
func TestUpdateIntoTieBreakBySender(t *testing.T) {
	var scratch Scratch
	received := vf(9, 1.0, 3, 1.0, 7, 1.0, 1, 1.0, 5, 1.0)
	// f=2: survivors = sender 5 only (senders 1,3 and 7,9 trimmed).
	want, err := TrimmedMean{}.Update(2, received, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrimmedMean{}.UpdateInto(&scratch, 2, received, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("tie-break mismatch: %v vs %v", want, got)
	}
	// a = 1/(5+1-4) = 1/2; survivors {1.0}; (2+1)/2 = 1.5.
	if want != 1.5 {
		t.Fatalf("reference = %v, want 1.5", want)
	}
}

// TestUpdateIntoSpecialValues covers ±Inf and NaN inputs: both paths share
// the same total order (NaN first, then value, then sender), so they must
// still agree bitwise — and never panic.
func TestUpdateIntoSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1e308}
	var scratch Scratch
	for trial := 0; trial < 2000; trial++ {
		f := 1 + rng.Intn(2)
		d := 2*f + 1 + rng.Intn(5)
		received := make([]ValueFrom, d)
		for i := range received {
			v := rng.Float64()
			if rng.Intn(2) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			received[i] = ValueFrom{From: i, Value: v}
		}
		rng.Shuffle(d, func(i, j int) { received[i], received[j] = received[j], received[i] })
		want, errWant := TrimmedMean{}.Update(0.5, received, f)
		got, errGot := TrimmedMean{}.UpdateInto(&scratch, 0.5, received, f)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errWant, errGot)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: %x vs %x", trial, math.Float64bits(want), math.Float64bits(got))
		}
	}
}

// TestUpdateIntoErrors mirrors the reference's validation.
func TestUpdateIntoErrors(t *testing.T) {
	var scratch Scratch
	if _, err := (TrimmedMean{}).UpdateInto(&scratch, 0, vf(0, 1, 1, 2), 1); err == nil {
		t.Error("2 values with f=1 should error")
	}
	if _, err := (TrimmedMean{}).UpdateInto(&scratch, 0, nil, 0); err == nil {
		t.Error("empty received should error")
	}
	if _, err := (TrimmedMean{}).UpdateInto(&scratch, 0, vf(0, 1), -1); err == nil {
		t.Error("negative f should error")
	}
}

// TestUpdateIntoZeroAlloc asserts the steady-state allocation contract.
func TestUpdateIntoZeroAlloc(t *testing.T) {
	var scratch Scratch
	received := randReceived(rand.New(rand.NewSource(3)), 63)
	// Warm the scratch once, then measure.
	if _, err := (TrimmedMean{}).UpdateInto(&scratch, 0.5, received, 5); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := (TrimmedMean{}).UpdateInto(&scratch, 0.5, received, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UpdateInto allocates %v per op, want 0", allocs)
	}
}

// FuzzUpdateIntoMatchesReference fuzzes the bit-identicality contract on
// adversarially chosen value patterns.
func FuzzUpdateIntoMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(1))
	f.Add(int64(99), uint8(15), uint8(3))
	f.Add(int64(-4), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, dRaw, fRaw uint8) {
		fault := int(fRaw % 4)
		d := 2*fault + 1 + int(dRaw%12)
		rng := rand.New(rand.NewSource(seed))
		received := randReceived(rng, d)
		own := rng.NormFloat64()
		var scratch Scratch
		want, errWant := TrimmedMean{}.Update(own, received, fault)
		got, errGot := TrimmedMean{}.UpdateInto(&scratch, own, received, fault)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("error mismatch: %v vs %v", errWant, errGot)
		}
		if errWant == nil && math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("d=%d f=%d: %v vs %v", d, fault, want, got)
		}
	})
}
