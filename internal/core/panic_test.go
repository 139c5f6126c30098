package core

import (
	"strings"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/parse"
)

// oobSource reads A(0,0) from an array indexed from 1. Validation does
// not bound-check subscripts, so the out-of-range read reaches nest
// counting, which panics; the compiler must hand that back as an error
// on the worker pool and on the inline path alike.
const oobSource = `PROGRAM oob
PARAM m
REAL A(m,m), X(m)
DO 5 i = 1, m
3   X(i) = A(0,0) + A(i,i)
5 CONTINUE
END
`

func TestCompilePanicBecomesError(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		p, err := parse.Parse(oobSource)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		c := NewCompiler(p, cost.Unit(), map[string]int{"m": 64}, 8)
		c.Jobs = jobs
		if _, err := c.Compile(); err == nil || !strings.Contains(err.Error(), "internal error") {
			t.Fatalf("jobs=%d: Compile error = %v, want a recovered internal error", jobs, err)
		}
		// The failure is memoized as an error, not as a zero cost.
		if _, _, err := c.SegmentCost(1, 1); err == nil {
			t.Fatalf("jobs=%d: SegmentCost after a recovered panic returned no error", jobs)
		}
	}
}
