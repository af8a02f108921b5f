package qp

import (
	"math"
	"math/rand"
	"testing"

	"priste/internal/mat"
)

// randomProblem draws one of three problem shapes: the normalised Eq. 15
// or Eq. 16 data of a random release check, or Gaussian w and q shifted so
// that the maximum lands a random distance from tol, where neither the
// best vertex nor the envelope bound decides and the edge scan must.
func randomProblem(rng *rand.Rand, n int, tol float64) Problem {
	a := make(mat.Vector, n)
	for i := range a {
		a[i] = rng.Float64()
	}
	if rng.Intn(2) == 0 {
		b := make(mat.Vector, n)
		c := make(mat.Vector, n)
		for i := range a {
			c[i] = rng.Float64()
			b[i] = c[i] * a[i] * rng.Float64()
		}
		p15, p16 := ReleaseProblems(ReleaseCheck{ATilde: a, BTilde: b, CTilde: c, Epsilon: 0.1 + 2*rng.Float64()})
		if rng.Intn(2) == 0 {
			return p15
		}
		return p16
	}
	p := Problem{A: a, W: make(mat.Vector, n), Q: make(mat.Vector, n)}
	for i := range a {
		p.W[i] = rng.NormFloat64()
		p.Q[i] = 0.5 * rng.NormFloat64()
	}
	// Adding a constant to every qᵢ shifts g by that constant on Δ.
	maxV, _ := ExactMax(p)
	off := math.Pow(10, -1-5*rng.Float64())
	if rng.Intn(2) == 0 {
		off = -off
	}
	for i := range p.Q {
		p.Q[i] -= maxV - tol - off
	}
	return p
}

// TestExactAgreesWithBranchAndBound is the differential oracle test: on
// random problems of size 2..120 the exact solver never contradicts a
// decided branch-and-bound verdict, and its maximum lies inside
// branch-and-bound's certified interval.
func TestExactAgreesWithBranchAndBound(t *testing.T) {
	const tol = 1e-9
	problems := 3000
	if testing.Short() {
		problems = 300
	}
	rng := rand.New(rand.NewSource(7))
	unknown := 0
	verdicts := map[Verdict]int{}
	for k := 0; k < problems; k++ {
		n := 2 + rng.Intn(119)
		p := randomProblem(rng, n, tol)
		ex, bb := AssertExactAgainstBnB(t, p, tol, 500)
		verdicts[ex.Verdict]++
		if bb.Verdict == Unknown {
			unknown++
		}
		if t.Failed() {
			t.Fatalf("problem %d (n=%d) failed", k, n)
		}
	}
	if verdicts[Satisfied] == 0 || verdicts[Violated] == 0 {
		t.Fatalf("corpus lacks a verdict class: %v", verdicts)
	}
	t.Logf("%d problems: exact verdicts %v, branch-and-bound unknown %d", problems, verdicts, unknown)
}

// TestExactBruteForceSmall checks the exact maximum against grids for
// n ≤ 4: no point of a simplex grid exceeds it, and a fine λ-grid over
// every edge comes within the grid's resolution of it.
func TestExactBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const steps = 4000
	for k := 0; k < 200; k++ {
		n := 1 + rng.Intn(4)
		p := Problem{A: make(mat.Vector, n), W: make(mat.Vector, n), Q: make(mat.Vector, n)}
		for i := 0; i < n; i++ {
			p.A[i] = rng.Float64()
			p.W[i] = rng.NormFloat64()
			p.Q[i] = 0.5 * rng.NormFloat64()
		}
		maxV, _ := ExactMax(p)
		if grid := bruteMax(p, 30); grid > maxV+1e-12 {
			t.Fatalf("n=%d: simplex grid %.17g above exact maximum %.17g", n, grid, maxV)
		}
		edge := math.Inf(-1)
		pi := make(mat.Vector, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				for s := 0; s <= steps; s++ {
					lam := float64(s) / steps
					for x := range pi {
						pi[x] = 0
					}
					pi[i] += lam
					pi[j] += 1 - lam
					edge = math.Max(edge, p.Eval(pi))
				}
			}
		}
		// g has bounded curvature, so the λ-grid misses the peak by
		// O(1/steps²).
		if math.Abs(edge-maxV) > 1e-6 {
			t.Fatalf("n=%d: edge λ-grid %.17g vs exact maximum %.17g", n, edge, maxV)
		}
	}
}

// TestExactMarginPath: a maximum within the rounding margin of Tol is
// Unknown, and one just outside the margin is decided.
func TestExactMarginPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 50; k++ {
		p := randomProblem(rng, 2+rng.Intn(30), 1e-9)
		maxV, _ := ExactMax(p)
		m := roundingMargin(p)
		for _, c := range []struct {
			tol  float64
			want Verdict
		}{
			{maxV, Unknown},
			{maxV + 0.5*m, Unknown},
			{maxV - 0.5*m, Unknown},
			{maxV + 2*m, Satisfied},
			{maxV - 2*m, Violated},
		} {
			if c.tol <= 0 {
				continue // Options treats a non-positive Tol as the default
			}
			r, err := solveExact(p, Options{Tol: c.tol})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != c.want {
				t.Fatalf("max %.17g, margin %g, tol %.17g: verdict %v, want %v", maxV, m, c.tol, r.Verdict, c.want)
			}
			if r.Verdict == Satisfied && r.Upper > c.tol {
				t.Fatalf("satisfied with Upper %.17g above tol %.17g", r.Upper, c.tol)
			}
		}
	}
}

// TestCheckReleaseExactAllocs bounds the allocations of one exact
// release check: the workspace shared by both conditions, the normalised
// condition vectors and the two BestPi points, independent of n.
func TestCheckReleaseExactAllocs(t *testing.T) {
	chk := benchCheck(400, 2)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := CheckRelease(chk, ReleaseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("exact CheckRelease: %v allocs/op, want ≤ 16", allocs)
	}
}
