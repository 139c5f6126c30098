package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"dmcc/internal/ir"
)

// panicText runs f and returns what it panicked with ("" if nothing).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCompiledAffineMatchesEval: a compiled affine form evaluated over
// the loop-level environment equals ir.Affine.Eval under the map
// environment the inspector used to keep — parameters bound first, then
// every enclosing loop index from the outermost in, so a repeated loop
// name resolves to the innermost loop — on random affines, scopes and
// bindings. A variable bound by neither panics with Eval's text, and
// only when the form is evaluated.
func TestCompiledAffineMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	names := []string{"i", "j", "k", "m", "n"}
	for trial := 0; trial < 2000; trial++ {
		// Scope: up to four loop levels named from i, j, k and m, with
		// repeats; a loop named m shadows the parameter m.
		scope := make([]string, rng.Intn(5))
		for l := range scope {
			scope[l] = names[rng.Intn(4)]
		}
		bind := map[string]int{"m": rng.Intn(200) - 100}
		if rng.Intn(2) == 0 {
			bind["n"] = rng.Intn(200) - 100
		}
		env := make([]int32, len(scope))
		menv := map[string]int{}
		for k, v := range bind {
			menv[k] = v
		}
		for l, name := range scope {
			env[l] = int32(rng.Intn(2000) - 1000)
			menv[name] = int(env[l])
		}
		var terms []ir.Term
		for _, v := range names {
			if rng.Intn(2) == 0 {
				terms = append(terms, ir.Term{Var: v, Coeff: rng.Intn(9) - 4})
			}
		}
		a := ir.NewAffine(rng.Intn(41)-20, terms...)
		f := compileAffine(a, scope, bind)

		want := panicText(func() { a.Eval(menv) })
		var got int
		gotPanic := panicText(func() { got = f.eval(env) })
		if want != "" {
			// Exactly one unbound variable keeps Eval's choice of the
			// name to report deterministic; with several, both panic.
			unbound := 0
			for _, v := range a.Vars() {
				if _, ok := menv[v]; !ok {
					unbound++
				}
			}
			if gotPanic == "" || (unbound == 1 && gotPanic != want) {
				t.Fatalf("trial %d: %s under scope %v bind %v: compiled panic %q, Eval panic %q",
					trial, a, scope, bind, gotPanic, want)
			}
			continue
		}
		if gotPanic != "" {
			t.Fatalf("trial %d: %s under scope %v bind %v: compiled form panicked %q", trial, a, scope, bind, gotPanic)
		}
		if exp := a.Eval(menv); got != exp {
			t.Fatalf("trial %d: %s under scope %v bind %v env %v: compiled %d, Eval %d",
				trial, a, scope, bind, env, got, exp)
		}
	}
}

// TestCompiledAffineInnermostWins pins the two resolution rules the
// random property relies on: a repeated loop name reads the innermost
// loop, and a loop index shadows a parameter of the same name.
func TestCompiledAffineInnermostWins(t *testing.T) {
	a := ir.NewAffine(1, ir.Term{Var: "i", Coeff: 2}, ir.Term{Var: "m", Coeff: -1})
	f := compileAffine(a, []string{"i", "j", "i"}, map[string]int{"m": 10})
	if got := f.eval([]int32{100, 7, 3}); got != 1+2*3-10 {
		t.Fatalf("repeated loop name: got %d, want the innermost i (%d)", got, 1+2*3-10)
	}
	f = compileAffine(a, []string{"m", "i"}, map[string]int{"m": 10})
	if got := f.eval([]int32{4, 5}); got != 1+2*5-4 {
		t.Fatalf("loop shadowing a parameter: got %d, want %d", got, 1+2*5-4)
	}
}

// TestCompiledAffineUnboundPanicsLate: compiling a form over an unbound
// variable succeeds, and evaluating it panics with ir.Affine.Eval's
// message.
func TestCompiledAffineUnboundPanicsLate(t *testing.T) {
	a := ir.V("q").PlusConst(1)
	var f cform
	if msg := panicText(func() { f = compileAffine(a, []string{"i"}, map[string]int{"m": 8}) }); msg != "" {
		t.Fatalf("compiling panicked: %s", msg)
	}
	want := panicText(func() { a.Eval(map[string]int{"i": 1, "m": 8}) })
	if want != `ir: unbound variable "q" in q+1` {
		t.Fatalf("ir.Affine.Eval panic text changed: %q", want)
	}
	if got := panicText(func() { f.eval([]int32{1}) }); got != want {
		t.Fatalf("compiled panic %q, want %q", got, want)
	}
}
