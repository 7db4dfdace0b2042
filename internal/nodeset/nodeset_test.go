package nodeset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndBasicOps(t *testing.T) {
	s := New(100)
	if got := s.Cap(); got != 100 {
		t.Fatalf("Cap() = %d, want 100", got)
	}
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(99)
	if got := s.Count(); got != 4 {
		t.Fatalf("Count() = %d, want 4", got)
	}
	for _, id := range []int{0, 63, 64, 99} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false, want true", id)
		}
	}
	for _, id := range []int{1, 62, 65, 98, -1, 100} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true, want false", id)
		}
	}
	s.Remove(63)
	if s.Contains(63) {
		t.Error("Contains(63) after Remove = true")
	}
	if got := s.Count(); got != 3 {
		t.Fatalf("Count() after remove = %d, want 3", got)
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	s := New(4)
	s.Add(4)
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromMembersAndMembers(t *testing.T) {
	s := FromMembers(10, 3, 1, 7)
	want := []int{1, 3, 7}
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
}

// TestDecode: the checked constructor agrees with FromMembers on a valid
// list and returns an error where FromMembers would panic.
func TestDecode(t *testing.T) {
	s, err := Decode(10, []int{3, 1, 7})
	if err != nil || !s.Equal(FromMembers(10, 3, 1, 7)) {
		t.Fatalf("Decode(10, [3 1 7]) = %v, %v", s, err)
	}
	if s, err := Decode(0, nil); err != nil || s.Cap() != 0 {
		t.Fatalf("Decode(0, nil) = %v, %v", s, err)
	}
	for _, bad := range []struct {
		n   int
		ids []int
	}{{3, []int{7}}, {3, []int{0, -1}}, {3, []int{3}}, {-1, nil}} {
		if _, err := Decode(bad.n, bad.ids); err == nil {
			t.Errorf("Decode(%d, %v) accepted", bad.n, bad.ids)
		}
	}
}

func TestUniverse(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		u := Universe(n)
		if got := u.Count(); got != n {
			t.Errorf("Universe(%d).Count() = %d", n, got)
		}
		if c := u.Complement(); !c.Empty() {
			t.Errorf("Universe(%d).Complement() = %v, want empty", n, c)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromMembers(8, 0, 1, 2, 3)
	b := FromMembers(8, 2, 3, 4, 5)

	if got, want := a.Union(b).Members(), []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b).Members(), []int{2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Difference(b).Members(), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Difference = %v, want %v", got, want)
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if a.Disjoint(b) {
		t.Error("Disjoint = true for overlapping sets")
	}
	if !FromMembers(8, 0).Disjoint(FromMembers(8, 7)) {
		t.Error("Disjoint = false for disjoint sets")
	}
	if !FromMembers(8, 1, 2).SubsetOf(a) {
		t.Error("SubsetOf = false for genuine subset")
	}
	if b.SubsetOf(a) {
		t.Error("SubsetOf = true for non-subset")
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("union across capacities did not panic")
		}
	}()
	New(4).UnionWith(New(8))
}

func TestCloneIndependence(t *testing.T) {
	a := FromMembers(8, 1, 2)
	b := a.Clone()
	b.Add(5)
	if a.Contains(5) {
		t.Fatal("mutating clone affected original")
	}
	if !a.Equal(FromMembers(8, 1, 2)) {
		t.Fatal("original changed")
	}
}

func TestMinAndForEachEarlyStop(t *testing.T) {
	if got := New(8).Min(); got != -1 {
		t.Errorf("Min of empty = %d, want -1", got)
	}
	s := FromMembers(130, 70, 5, 129)
	if got := s.Min(); got != 5 {
		t.Errorf("Min = %d, want 5", got)
	}
	var visited []int
	s.ForEach(func(id int) bool {
		visited = append(visited, id)
		return len(visited) < 2
	})
	if want := []int{5, 70}; !reflect.DeepEqual(visited, want) {
		t.Errorf("early-stop visit = %v, want %v", visited, want)
	}
}

func TestString(t *testing.T) {
	if got, want := FromMembers(8, 1, 3).String(), "{1, 3}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := New(8).String(), "{}"; got != want {
		t.Errorf("empty String() = %q, want %q", got, want)
	}
}

func TestSubsetsAscendingSize(t *testing.T) {
	ground := Universe(6)
	prevSize := -1
	var bySize [7]int
	SubsetsAscendingSize(ground, 0, 6, func(s Set) bool {
		c := s.Count()
		if c < prevSize {
			t.Fatalf("size decreased: %d after %d", c, prevSize)
		}
		prevSize = c
		bySize[c]++
		return true
	})
	want := [7]int{1, 6, 15, 20, 15, 6, 1}
	if bySize != want {
		t.Fatalf("size histogram = %v, want %v", bySize, want)
	}
}

func TestSubsetsAscendingSizeBounds(t *testing.T) {
	ground := Universe(5)
	count := 0
	SubsetsAscendingSize(ground, 2, 3, func(s Set) bool {
		if c := s.Count(); c < 2 || c > 3 {
			t.Errorf("size %d outside [2,3]", c)
		}
		count++
		return true
	})
	if want := 10 + 10; count != want {
		t.Fatalf("count = %d, want %d", count, want)
	}
	// Out-of-range bounds clamp rather than panic.
	count = 0
	SubsetsAscendingSize(ground, -3, 99, func(Set) bool { count++; return true })
	if count != 32 {
		t.Fatalf("clamped enumeration = %d, want 32", count)
	}
}

func TestSubsetsAscendingSizeEarlyStop(t *testing.T) {
	count := 0
	SubsetsAscendingSize(Universe(8), 1, 8, func(Set) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop after %d, want 3", count)
	}
}

// randomSet builds a pseudo-random set for property tests.
func randomSet(rng *rand.Rand, capacity int) Set {
	s := New(capacity)
	for i := 0; i < capacity; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickAlgebraLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			capacity := 1 + rng.Intn(150)
			vals[0] = reflect.ValueOf(randomSet(rng, capacity))
			vals[1] = reflect.ValueOf(randomSet(rng, capacity))
		},
	}

	law := func(a, b Set) bool {
		union := a.Union(b)
		inter := a.Intersect(b)
		// |A∪B| + |A∩B| = |A| + |B|
		if union.Count()+inter.Count() != a.Count()+b.Count() {
			return false
		}
		// De Morgan: complement(A∪B) == complement(A) ∩ complement(B)
		if !union.Complement().Equal(a.Complement().Intersect(b.Complement())) {
			return false
		}
		// A−B = A ∩ complement(B)
		if !a.Difference(b).Equal(a.Intersect(b.Complement())) {
			return false
		}
		// Disjoint ⟺ IntersectionCount == 0
		if a.Disjoint(b) != (a.IntersectionCount(b) == 0) {
			return false
		}
		// Complement is an involution.
		if !a.Complement().Complement().Equal(a) {
			return false
		}
		// Subset relations of union/intersection.
		return inter.SubsetOf(a) && a.SubsetOf(union)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMembersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		capacity := 1 + rng.Intn(200)
		s := randomSet(rng, capacity)
		back := FromMembers(capacity, s.Members()...)
		return back.Equal(s)
	}
	for i := 0; i < 300; i++ {
		if !f() {
			t.Fatal("Members/FromMembers round-trip failed")
		}
	}
}
