// Periodic index sets and 2-D element rectangles: the set algebra behind
// the analytic nest counter. An iset is a union of residue classes
// clipped to an interval — exactly the shape of the index sets owned by
// one grid coordinate under the Section 2.1 distribution functions
// (dist.OwnedPattern) and closed under intersection and unit-slope affine
// maps. A rect lifts isets to 2-D element sets: a box product of two
// isets further cut by difference and sum bands
//
//	dlo <= e1 - e0 <= dhi   and   slo <= e1 + e0 <= shi
//
// which is the closure, under intersection, of the three shapes affine
// nests produce: plain products, diagonals (one variable driving both
// subscripts, a band of width zero), and the triangular half-planes of
// loop-variable-dependent bounds (i = k+1..m reads A(i,k) below the
// diagonal). Counting is exact integer arithmetic throughout; band
// counts reduce to sums of arithmetic-progression counts evaluated in
// closed form, so the cost stays independent of the interval widths.
package cost

import "dmcc/internal/dist"

// iset is {x in [lo, hi] : res[x mod p]} with p >= 1 and len(res) == p.
type iset struct {
	lo, hi int
	p      int
	res    []bool
}

func fullSet(lo, hi int) iset { return iset{lo: lo, hi: hi, p: 1, res: []bool{true}} }

func singletonSet(v int) iset { return fullSet(v, v) }

func setFromPattern(pt dist.OwnedPattern) iset {
	return iset{lo: pt.Lo, hi: pt.Hi, p: pt.Period, res: pt.Residues}
}

func mod(x, p int) int { return ((x % p) + p) % p }

// countResidue counts x in [lo, hi] with x mod p == r.
func countResidue(lo, hi, p, r int) int64 {
	if hi < lo {
		return 0
	}
	// Shift so the range starts at a multiple of p.
	span := hi - lo + 1
	off := mod(r-lo, p)
	if off >= span {
		return 0
	}
	return int64((span-off-1)/p) + 1
}

func (s iset) count() int64 { return s.countIn(s.lo, s.hi) }

// countIn counts members of s inside [l, h]: every whole period holds
// each residue once, and the shorter remainder is scanned.
func (s iset) countIn(l, h int) int64 {
	if l < s.lo {
		l = s.lo
	}
	if h > s.hi {
		h = s.hi
	}
	if h < l {
		return 0
	}
	span := h - l + 1
	if s.p == 1 {
		if s.res[0] {
			return int64(span)
		}
		return 0
	}
	var c int64
	if full := span / s.p; full > 0 {
		var per int64
		for _, ok := range s.res {
			if ok {
				per++
			}
		}
		c = int64(full) * per
	}
	r := mod(l, s.p)
	for i := span % s.p; i > 0; i-- {
		if s.res[r] {
			c++
		}
		if r++; r == s.p {
			r = 0
		}
	}
	return c
}

func (s iset) empty() bool { return s.count() == 0 }

func (s iset) contains(v int) bool {
	return v >= s.lo && v <= s.hi && s.res[mod(v, s.p)]
}

// minElem returns the smallest member. Any nonempty set has a member in
// the first p positions of its interval, so the scan is O(p).
func (s iset) minElem() (int, bool) {
	end := s.lo + s.p - 1
	if end > s.hi {
		end = s.hi
	}
	for v := s.lo; v <= end; v++ {
		if s.res[mod(v, s.p)] {
			return v, true
		}
	}
	return 0, false
}

func (s iset) maxElem() (int, bool) {
	end := s.hi - s.p + 1
	if end < s.lo {
		end = s.lo
	}
	for v := s.hi; v >= end; v-- {
		if s.res[mod(v, s.p)] {
			return v, true
		}
	}
	return 0, false
}

// tight returns s with its interval shrunk to its extreme members, as a
// plain interval when those members are contiguous. A cyclic owner
// pattern whose period exceeds the array extent (N ≥ m) becomes one
// interval, so the set algebra over it stops scaling with N.
func (s iset) tight() iset {
	mn, ok := s.minElem()
	if !ok {
		return s
	}
	mx, _ := s.maxElem()
	if s.countIn(mn, mx) == int64(mx-mn+1) {
		return fullSet(mn, mx)
	}
	return s.clip(mn, mx)
}

// clip restricts the interval to [l, h].
func (s iset) clip(l, h int) iset {
	out := s
	if l > out.lo {
		out.lo = l
	}
	if h < out.hi {
		out.hi = h
	}
	return out
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcmInt(a, b int) int { return a / gcdInt(a, b) * b }

func intersectSets(a, b iset) iset { return intersectSetsIn(nil, a, b) }

// intersectSetsIn is intersectSets with the residue table taken from ar.
// Intersecting with a whole interval only clips the other set, whose
// table is shared: tables are never written once built.
func intersectSetsIn(ar *resArena, a, b iset) iset {
	if a.p == 1 && a.res[0] {
		a, b = b, a
	}
	if b.p == 1 && b.res[0] {
		return a.clip(b.lo, b.hi)
	}
	p := lcmInt(a.p, b.p)
	res := ar.take(p)
	ra, rb := 0, 0
	for r := range res {
		res[r] = a.res[ra] && b.res[rb]
		if ra++; ra == a.p {
			ra = 0
		}
		if rb++; rb == b.p {
			rb = 0
		}
	}
	lo, hi := a.lo, a.hi
	if b.lo > lo {
		lo = b.lo
	}
	if b.hi < hi {
		hi = b.hi
	}
	return iset{lo: lo, hi: hi, p: p, res: res}
}

// resArena hands out residue tables from one reusable slab, so a hot loop
// can build set intersections without allocating once the slab has grown
// to its working size. Tables stay valid until the next reset. A nil
// arena allocates every table.
type resArena struct{ buf []bool }

func (ar *resArena) reset() { ar.buf = ar.buf[:0] }

func (ar *resArena) take(p int) []bool {
	if ar == nil {
		return make([]bool, p)
	}
	n := len(ar.buf)
	if n+p > cap(ar.buf) {
		// A fresh slab; tables handed out earlier keep the old one alive
		// until the next reset.
		ar.buf = make([]bool, 0, maxInt(2*cap(ar.buf), maxInt(p, 256)))
		n = 0
	}
	ar.buf = ar.buf[:n+p]
	return ar.buf[n : n+p : n+p]
}

// countMapped counts the members x of a with s*x + c in b, s in {-1, +1},
// without building the intersection: x mod lcm(a.p, b.p) fixes both
// residues.
func countMapped(a, b iset, s, c int) int64 {
	lo, hi := b.lo-c, b.hi-c
	if s == -1 {
		lo, hi = c-b.hi, c-b.lo
	}
	lo, hi = maxInt(lo, a.lo), minInt(hi, a.hi)
	if hi < lo {
		return 0
	}
	p := lcmInt(a.p, b.p)
	var n int64
	for r := 0; r < p; r++ {
		if a.res[r%a.p] && b.res[mod(s*r+c, b.p)] {
			n += countResidue(lo, hi, p, r)
		}
	}
	return n
}

// affineImage returns {s*x + c : x in set}, s in {-1, +1}.
func (st iset) affineImage(s, c int) iset {
	var lo, hi int
	if s == 1 {
		lo, hi = st.lo+c, st.hi+c
	} else {
		lo, hi = c-st.hi, c-st.lo
	}
	res := make([]bool, st.p)
	for r, ok := range st.res {
		if ok {
			res[mod(s*r+c, st.p)] = true
		}
	}
	return iset{lo: lo, hi: hi, p: st.p, res: res}
}

// affinePreimage returns {x : s*x + c in set}; since s*s == 1 this is the
// image under the inverse map x = s*y - s*c.
func (st iset) affinePreimage(s, c int) iset {
	return st.affineImage(s, -s*c)
}

// Band sentinels: far enough from any index to never clamp, near enough
// that band arithmetic (sums and differences of two bounds) cannot
// overflow.
const (
	bandMin = -1 << 40
	bandMax = 1 << 40
)

// rect is a set of (e0, e1) element pairs: e0 in a, e1 in b, cut by a
// difference band dlo <= e1-e0 <= dhi and a sum band slo <= e1+e0 <= shi.
// Products leave both bands open; a diagonal pins one band to width
// zero; triangular reads close one side only. 1-D arrays use product
// form with b pinned to the singleton {0}, matching the walker's
// elemKey.
type rect struct {
	a, b     iset
	dlo, dhi int
	slo, shi int
}

func prodRect(a, b iset) rect {
	return rect{a: a, b: b, dlo: bandMin, dhi: bandMax, slo: bandMin, shi: bandMax}
}

// diagRect is {(s0*v+c0, s1*v+c1) : v in s}: the box of the two images
// with the line itself expressed as a zero-width band. The unit slopes
// make v recoverable from either coordinate, so the band form is the
// same point set, not an approximation.
func diagRect(s iset, s0, c0, s1, c1 int) rect {
	r := prodRect(s.affineImage(s0, c0), s.affineImage(s1, c1))
	if s0 == s1 {
		r.dlo, r.dhi = c1-c0, c1-c0
	} else {
		r.slo, r.shi = c0+c1, c0+c1
	}
	return r
}

// halfPlane cuts r by sgn0*e0 + sgn1*e1 >= g (or <= g when ge is false),
// with sgn0, sgn1 in {-1, +1} — the constraint shape a dependent loop
// bound induces between two subscript images.
func (r rect) halfPlane(sgn0, sgn1, g int, ge bool) rect {
	if sgn0 == sgn1 {
		// sgn*(e0+e1) >= g  <=>  e0+e1 >= sgn*g (sgn=+1) / <= -g (sgn=-1).
		if (sgn0 == 1) == ge {
			if v := sgn0 * g; v > r.slo {
				r.slo = v
			}
		} else {
			if v := sgn0 * g; v < r.shi {
				r.shi = v
			}
		}
		return r
	}
	// sgn1*(e1-e0) >= g.
	if (sgn1 == 1) == ge {
		if v := sgn1 * g; v > r.dlo {
			r.dlo = v
		}
	} else {
		if v := sgn1 * g; v < r.dhi {
			r.dhi = v
		}
	}
	return r
}

// bandsOpen reports whether the difference and the sum band each leave
// the box of r's two intervals uncut.
func (r rect) bandsOpen() (dOpen, sOpen bool) {
	a, b := r.a, r.b
	dOpen = r.dlo <= b.lo-a.hi && r.dhi >= b.hi-a.lo
	sOpen = r.slo <= a.lo+b.lo && r.shi >= a.hi+b.hi
	return dOpen, sOpen
}

// open reports whether r is a plain product: neither band cuts its box,
// nor any sub-box of it.
func (r rect) open() bool {
	d, s := r.bandsOpen()
	return d && s
}

func (r rect) count() int64 {
	a, b := r.a, r.b
	if a.hi < a.lo || b.hi < b.lo {
		return 0
	}
	dOpen, sOpen := r.bandsOpen()
	switch {
	case dOpen && sOpen:
		return a.count() * b.count()
	case r.dlo == r.dhi && sOpen:
		// One line e1 = e0 + d: members of a whose partner lies in b.
		return countMapped(a, b, 1, r.dlo)
	case r.slo == r.shi && dOpen:
		// One line e1 = s - e0.
		return countMapped(a, b, -1, r.slo)
	case r.dlo == r.dhi && r.slo == r.shi:
		// Two crossing lines: at most one point.
		if (r.slo-r.dlo)%2 != 0 {
			return 0
		}
		e0 := (r.slo - r.dlo) / 2
		e1 := e0 + r.dlo
		if e0+e1 >= r.slo && e0+e1 <= r.shi && a.contains(e0) && b.contains(e1) {
			return 1
		}
		return 0
	}
	if r.dlo > r.dhi || r.slo > r.shi {
		return 0
	}
	// General band: sum the windowed count of b over the members of a.
	t := winTerm{set: b}
	if r.dlo > bandMin {
		t.los = append(t.los, affBound{c: r.dlo, k: 1})
	}
	if r.slo > bandMin {
		t.los = append(t.los, affBound{c: r.slo, k: -1})
	}
	if r.dhi < bandMax {
		t.his = append(t.his, affBound{c: r.dhi, k: 1})
	}
	if r.shi < bandMax {
		t.his = append(t.his, affBound{c: r.shi, k: -1})
	}
	return sumWindowed(a, []winTerm{t})
}

// rectEq reports structural equality — same sets, same bands. Used to
// dedup footprint rects before inclusion-exclusion, whose cost is
// exponential in the rect count.
func rectEq(x, y rect) bool {
	if x.dlo != y.dlo || x.dhi != y.dhi || x.slo != y.slo || x.shi != y.shi {
		return false
	}
	return isetEq(x.a, y.a) && isetEq(x.b, y.b)
}

func isetEq(x, y iset) bool {
	if x.p != y.p || x.lo != y.lo || x.hi != y.hi || len(x.res) != len(y.res) {
		return false
	}
	for i := range x.res {
		if x.res[i] != y.res[i] {
			return false
		}
	}
	return true
}

// intersectRect intersects two rects, taking residue tables from ar.
// ok == false means provably empty; a true result may still count to
// zero.
func intersectRect(ar *resArena, x, y rect) (rect, bool) {
	r := rect{a: intersectSetsIn(ar, x.a, y.a), b: intersectSetsIn(ar, x.b, y.b)}
	r.dlo, r.dhi = maxInt(x.dlo, y.dlo), minInt(x.dhi, y.dhi)
	r.slo, r.shi = maxInt(x.slo, y.slo), minInt(x.shi, y.shi)
	if r.a.hi < r.a.lo || r.b.hi < r.b.lo || r.dlo > r.dhi || r.slo > r.shi {
		return rect{}, false
	}
	return r, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ------------------------------------------------- windowed AP sums --

// affBound is a window endpoint affine in the outer variable v:
// value(v) = c + k*v with k in {-1, 0, +1}.
type affBound struct{ c, k int }

// winTerm is one factor of a windowed product: the count of set members
// inside [max of los, min of his] (either side open when empty).
type winTerm struct {
	set      iset
	los, his []affBound
}

func (t winTerm) eval(v int) int64 {
	lo, hi := t.set.lo, t.set.hi
	for _, b := range t.los {
		if x := b.c + b.k*v; x > lo {
			lo = x
		}
	}
	for _, b := range t.his {
		if x := b.c + b.k*v; x < hi {
			hi = x
		}
	}
	return t.set.countIn(lo, hi)
}

// sumWindowedDirectCap: spans at most this wide are summed by direct
// enumeration of v; the closed form takes over beyond it.
const sumWindowedDirectCap = 64

// sumWindowed returns sum over v in xs of the product over terms of
// |term.set ∩ [max(term.los(v)), min(term.his(v))]|, in closed form.
//
// On any interval of v where no window endpoint crosses another or
// crosses its set's hull, and restricted to one residue class of the
// combined period, each factor is affine in v (shifting a window by the
// period over a periodic set changes the count linearly), so the product
// is a polynomial of degree <= len(terms). The sum is then recovered
// from len(terms)+1 samples per (interval, class) by Newton forward
// differences and hockey-stick binomial sums — exactly the
// "sums of arithmetic-progression counts" closed form.
func sumWindowed(xs iset, terms []winTerm) int64 {
	if xs.hi < xs.lo {
		return 0
	}
	prodAt := func(v int) int64 {
		if !xs.res[mod(v, xs.p)] {
			return 0
		}
		acc := int64(1)
		for _, t := range terms {
			acc *= t.eval(v)
			if acc == 0 {
				return 0
			}
		}
		return acc
	}
	if xs.hi-xs.lo < sumWindowedDirectCap {
		var sum int64
		r := mod(xs.lo, xs.p)
		for v := xs.lo; v <= xs.hi; v++ {
			if xs.res[r] {
				sum += prodAt(v)
			}
			if r++; r == xs.p {
				r = 0
			}
		}
		return sum
	}

	period := xs.p
	for _, t := range terms {
		period = lcmInt(period, t.set.p)
	}

	// Interval starts: v values where some endpoint ordering can change.
	starts := []int{xs.lo}
	addCross := func(v int) {
		for _, d := range [3]int{-1, 0, 1} {
			if x := v + d; x > xs.lo && x <= xs.hi {
				starts = append(starts, x)
			}
		}
	}
	for _, t := range terms {
		bounds := append(append([]affBound{}, t.los...), t.his...)
		for i, b1 := range bounds {
			if b1.k != 0 {
				// Crossing the set hull (clamp side changes).
				addCross(b1.k * (t.set.lo - b1.c))
				addCross(b1.k * (t.set.hi - b1.c))
			}
			for _, b2 := range bounds[i+1:] {
				if b1.k == b2.k {
					continue
				}
				// c1 + k1 v = c2 + k2 v at v = (c2-c1)/(k1-k2).
				num, den := b2.c-b1.c, b1.k-b2.k
				addCross(floorDiv(num, den))
			}
		}
	}
	sortInts(starts)
	starts = dedupInts(starts)

	deg := len(terms)
	var sum int64
	samples := make([]int64, deg+1)
	for i, l := range starts {
		h := xs.hi
		if i+1 < len(starts) {
			h = starts[i+1] - 1
		}
		for rho := 0; rho < period; rho++ {
			if !xs.res[rho%xs.p] {
				continue
			}
			v0 := l + mod(rho-l, period)
			if v0 > h {
				continue
			}
			n := int64((h-v0)/period) + 1
			if n <= int64(deg)+1 {
				for t := int64(0); t < n; t++ {
					sum += prodAt(v0 + int(t)*period)
				}
				continue
			}
			for t := 0; t <= deg; t++ {
				samples[t] = prodAt(v0 + t*period)
			}
			// Forward differences in place, then the hockey-stick sum:
			// sum over t < n of C(t,k) equals C(n, k+1).
			for k := 1; k <= deg; k++ {
				for j := deg; j >= k; j-- {
					samples[j] -= samples[j-1]
				}
			}
			for k := 0; k <= deg; k++ {
				sum += samples[k] * binom(n, int64(k)+1)
			}
		}
	}
	return sum
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// binom returns C(n, k) exactly; the running product is divisible by i
// at each step.
func binom(n, k int64) int64 {
	if k < 0 || k > n {
		return 0
	}
	b := int64(1)
	for i := int64(1); i <= k; i++ {
		b = b * (n - i + 1) / i
	}
	return b
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
