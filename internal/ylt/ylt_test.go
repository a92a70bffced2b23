package ylt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	a := New("x", 10)
	if a.NumTrials() != 10 || !a.HasOccurrence() {
		t.Fatal("New shape wrong")
	}
	b := NewAggOnly("y", 5)
	if b.NumTrials() != 5 || b.HasOccurrence() {
		t.Fatal("NewAggOnly shape wrong")
	}
}

func TestMeanStd(t *testing.T) {
	a := New("x", 4)
	copy(a.Agg, []float64{1, 2, 3, 4})
	if a.Mean() != 2.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
}

func TestCombineAlignedSum(t *testing.T) {
	a := New("a", 3)
	copy(a.Agg, []float64{1, 2, 3})
	copy(a.OccMax, []float64{5, 1, 2})
	b := New("b", 3)
	copy(b.Agg, []float64{10, 20, 30})
	copy(b.OccMax, []float64{4, 6, 1})
	c, err := Combine("c", a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg := []float64{11, 22, 33}
	wantMax := []float64{5, 6, 2}
	for i := range wantAgg {
		if c.Agg[i] != wantAgg[i] {
			t.Fatalf("Agg[%d] = %v", i, c.Agg[i])
		}
		if c.OccMax[i] != wantMax[i] {
			t.Fatalf("OccMax[%d] = %v", i, c.OccMax[i])
		}
	}
}

func TestCombineMismatch(t *testing.T) {
	a := New("a", 3)
	b := New("b", 4)
	if _, err := Combine("c", a, b); !errors.Is(err, ErrTrialMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Combine("c"); err == nil {
		t.Fatal("empty combine should error")
	}
}

func TestCombineRejectsMixedOccurrence(t *testing.T) {
	a := New("a", 2)
	copy(a.Agg, []float64{1, 2})
	copy(a.OccMax, []float64{3, 4})
	b := NewAggOnly("b", 2)
	copy(b.Agg, []float64{10, 20})
	if _, err := Combine("c", a, b); !errors.Is(err, ErrOccurrenceMismatch) {
		t.Fatalf("mixed combine: err = %v, want ErrOccurrenceMismatch", err)
	}
	// Uniform agg-only inputs are still fine (DFA-style tables).
	c, err := Combine("c", b, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.HasOccurrence() || c.Agg[1] != 40 {
		t.Fatalf("agg-only combine wrong: occ=%v agg=%v", c.HasOccurrence(), c.Agg)
	}
}

func TestCombineCommutativeProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		mk := func(vals []float64, name string) *Table {
			t := New(name, n)
			copy(t.Agg, vals[:n])
			copy(t.OccMax, vals[:n])
			return t
		}
		for _, v := range append(xs[:n], ys[:n]...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		ab, err1 := Combine("ab", mk(xs, "a"), mk(ys, "b"))
		ba, err2 := Combine("ba", mk(ys, "b"), mk(xs, "a"))
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(ab.Agg[i]-ba.Agg[i]) > 1e-9*(1+math.Abs(ab.Agg[i])) {
				return false
			}
			if ab.OccMax[i] != ba.OccMax[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytes(t *testing.T) {
	a := New("xy", 10)
	if a.SizeBytes() != 16+2+160 {
		t.Fatalf("SizeBytes = %d", a.SizeBytes())
	}
	b := NewAggOnly("xy", 10)
	if b.SizeBytes() != 16+2+80 {
		t.Fatalf("agg-only SizeBytes = %d", b.SizeBytes())
	}
}
