package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestNewStringDeterminism(t *testing.T) {
	a, b := NewString("bench:gcc"), NewString("bench:gcc")
	c := NewString("bench:mcf")
	if a.Uint64() != b.Uint64() {
		t.Error("identical names must produce identical streams")
	}
	if a.Uint64() == c.Uint64() {
		t.Error("different names should produce different streams")
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds matched %d/100 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(13)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(19)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %v", p)
	}
}

func TestPickWeighted(t *testing.T) {
	r := New(37)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight-3/weight-1 pick ratio %v, want ~3", ratio)
	}
}

func TestPickDegenerate(t *testing.T) {
	r := New(41)
	if got := r.Pick([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero weights should pick 0, got %d", got)
	}
	if got := r.Pick([]float64{5}); got != 0 {
		t.Errorf("single weight should pick 0, got %d", got)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(43)
	f1 := a.Fork("one")
	b := New(43)
	b.Uint64() // consume, same as Fork does
	// Forks with different labels from identical parents must differ.
	c := New(43)
	f2 := c.Fork("two")
	if f1.Uint64() == f2.Uint64() {
		t.Error("forks with different labels should produce different streams")
	}
}

func TestForkDeterminism(t *testing.T) {
	f1 := New(47).Fork("sub")
	f2 := New(47).Fork("sub")
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatal("identical forks diverged")
		}
	}
}
