package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values, summed in sorted
// order so that the result does not depend on the order of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(s)))
}

// pointMedians reduces per-point samples to one median per point, so
// that every point of a draw weighs the same in the percentiles over
// points however many times it ran.
func pointMedians(samples [][]float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if len(s) > 0 {
			out = append(out, median(s))
		}
	}
	return out
}

// setOpTimes reports the op-time metrics of a per-point workload from
// each point's median op time: p50 and p90 over the points, and the
// throughput of one pass over the draw (points / summed medians).
func setOpTimes(o *outcome, times [][]float64) {
	med := pointMedians(times)
	sum := 0.0
	for _, t := range med {
		sum += t
	}
	o.set("op_ms_p50", hdQuantile(med, 0.5))
	o.set("op_ms_p90", hdQuantile(med, 0.9))
	o.set("ops_per_s", 1e3*float64(len(med))/sum)
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile: a mean of
// all order statistics with Beta((n+1)q, (n+1)(1-q)) weights. Points of
// a draw are few and their costs far apart, so a single order
// statistic (or two, interpolated) jumps when two points swap places;
// the weighted mean moves smoothly.
func hdQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := (n+1)*q, (n+1)*(1-q)
	est, prev := 0.0, 0.0
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/n)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// Lentz's continued fraction.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passes runs pass(k) for k = 0, 1, ... and stops at the first pass
// boundary at or after the deadline; it always runs at least one pass.
// Every pass does the same work, so counts per pass are deterministic.
func passes(seconds float64, pass func(k int)) (n int, elapsed time.Duration) {
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for n == 0 || time.Since(start) < limit {
		pass(n)
		n++
	}
	return n, time.Since(start)
}

// A run sets its workload up at least setupMinReps times and for at
// least setupMinTime, but no more than setupMaxReps times. A short
// set-up (compile-mix takes about 0.1 s) is then timed often enough that
// a burst of host noise does not decide its median.
const (
	setupMinReps = 5
	setupMaxReps = 25
	setupMinTime = 2 * time.Second
)

// medianSetup times set-up repeatedly and reports the median, so that
// one slow set-up does not decide setup_s. It returns the product of
// the last set-up; earlier ones are released with drop.
func medianSetup[T any](setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var times []float64
	start := time.Now()
	for r := 0; r < setupMaxReps && (r < setupMinReps || time.Since(start) < setupMinTime); r++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r > 0 && drop != nil {
			drop(last)
		}
		last = v
	}
	return last, median(times), nil
}
