package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestRamp(t *testing.T) {
	got := Ramp(4)
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("Ramp[%d] = %v", i, v)
		}
	}
	if len(Ramp(0)) != 0 {
		t.Fatal("Ramp(0) should be empty")
	}
}

func TestConstant(t *testing.T) {
	for _, v := range Constant(5, 3.5) {
		if v != 3.5 {
			t.Fatalf("Constant value %v", v)
		}
	}
}

func TestBimodal(t *testing.T) {
	got := Bimodal(5, -1, 1)
	want := []float64{-1, -1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bimodal = %v, want %v", got, want)
		}
	}
}

func TestBimodalSets(t *testing.T) {
	got, err := BimodalSets(4, []int{0, 3}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 9, 9, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BimodalSets = %v, want %v", got, want)
		}
	}
	if _, err := BimodalSets(4, []int{4}, 0, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestUniformRangeAndDeterminism(t *testing.T) {
	a := Uniform(100, 2, 5, rand.New(rand.NewSource(7)))
	b := Uniform(100, 2, 5, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] < 2 || a[i] >= 5 {
			t.Fatalf("Uniform[%d] = %v outside [2,5)", i, a[i])
		}
		if a[i] != b[i] {
			t.Fatal("same seed produced different vectors")
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	xs := Gaussian(20000, 10, 2, rand.New(rand.NewSource(8)))
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	std := math.Sqrt(sq / float64(len(xs)))
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %v, want ≈ 10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("stddev = %v, want ≈ 2", std)
	}
}
