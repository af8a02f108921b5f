package qp

import (
	"math"
	"testing"

	"priste/internal/mat"
)

// Test-only access to the exact solver's internals, shared with the
// external-package tests that harvest real release problems.

// RoundingMargin is the exact solver's rounding margin for p.
var RoundingMargin = roundingMargin

// ExactMax returns the exact maximum of p over the simplex (the best
// vertex or edge peak, with no early exit) and a point attaining it.
func ExactMax(p Problem) (float64, mat.Vector) {
	bi, best := bestVertex(p)
	pi := mat.NewVector(len(p.A))
	if v, i, j, lam := newWorkspace(p).edgeScan(math.Inf(1)); v > best {
		pi[i], pi[j] = lam, 1-lam
		return v, pi
	}
	pi[bi] = 1
	return best, pi
}

// ReleaseProblems returns the normalised Eq. 15 and Eq. 16 problems that
// CheckRelease solves for chk.
func ReleaseProblems(chk ReleaseCheck) (eq15, eq16 Problem) {
	scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
	w1, q1, w2, q2 := releaseConditions(chk, scale)
	return Problem{A: chk.ATilde, W: w1, Q: q1}, Problem{A: chk.ATilde, W: w2, Q: q2}
}

// solveExact runs the exact solver on one problem, as CheckRelease does
// for each condition.
func solveExact(p Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return newWorkspace(p).exact(opt.withDefaults().Tol), nil
}

// AssertExactAgainstBnB checks the exact solver on p against
// branch-and-bound with the given node budget: a verdict disagreement
// must be a branch-and-bound Unknown, the exact maximum must lie inside
// both solvers' [Lower, Upper], and each solver's BestPi, like the exact
// maximiser, must be a simplex point that reproduces its value. It
// returns both results.
func AssertExactAgainstBnB(t testing.TB, p Problem, tol float64, maxNodes int) (ex, bb Result) {
	t.Helper()
	ex, err := solveExact(p, Options{Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	bb, err = Solve(p, Options{Tol: tol, MaxNodes: maxNodes})
	if err != nil {
		t.Fatal(err)
	}
	rm := roundingMargin(p)
	if ex.Verdict != bb.Verdict && bb.Verdict != Unknown {
		t.Errorf("n=%d: exact %v but branch-and-bound %v in [%g, %g]", len(p.A), ex.Verdict, bb.Verdict, bb.Lower, bb.Upper)
	}
	maxV, maxPi := ExactMax(p)
	if maxV < bb.Lower-rm || maxV > bb.Upper+rm {
		t.Errorf("n=%d: exact maximum %.17g outside branch-and-bound's [%.17g, %.17g]", len(p.A), maxV, bb.Lower, bb.Upper)
	}
	if maxV < ex.Lower-rm || maxV > ex.Upper+rm {
		t.Errorf("n=%d: exact maximum %.17g outside the exact verdict's [%.17g, %.17g]", len(p.A), maxV, ex.Lower, ex.Upper)
	}
	for _, c := range []struct {
		pi  mat.Vector
		val float64
	}{{ex.BestPi, ex.Lower}, {maxPi, maxV}, {bb.BestPi, bb.Lower}} {
		sum := 0.0
		for _, x := range c.pi {
			if x < 0 {
				t.Fatalf("n=%d: negative coordinate in %v", len(p.A), c.pi)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("n=%d: point sums to %v", len(p.A), sum)
		}
		if got := p.Eval(c.pi); math.Abs(got-c.val) > rm {
			t.Errorf("n=%d: Eval(point) = %.17g, reported %.17g", len(p.A), got, c.val)
		}
	}
	return ex, bb
}
