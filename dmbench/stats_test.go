package main

import (
	"math"
	"testing"
)

func TestBetaInc(t *testing.T) {
	// I_x(1, 1) = x; I_x(2, 1) = x^2; I_x(a, b) = 1 - I_{1-x}(b, a).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := betaInc(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%g(1,1) = %g", x, got)
		}
		if got := betaInc(2, 1, x); math.Abs(got-x*x) > 1e-12 {
			t.Errorf("I_%g(2,1) = %g", x, got)
		}
		if got, want := betaInc(3.5, 7.2, x), 1-betaInc(7.2, 3.5, 1-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("I_%g(3.5,7.2) = %g, symmetry gives %g", x, got, want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := hdQuantile(xs, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("HD median of 1..5 = %g, want 3", got)
	}
	if got := hdQuantile([]float64{7, 7, 7}, 0.9); math.Abs(got-7) > 1e-12 {
		t.Errorf("HD p90 of a constant = %g, want 7", got)
	}
	if lo, hi := hdQuantile(xs, 0.1), hdQuantile(xs, 0.9); !(1 < lo && lo < hi && hi < 5) {
		t.Errorf("HD p10, p90 of 1..5 = %g, %g", lo, hi)
	}
}
