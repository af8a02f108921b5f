package qp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"priste/internal/mat"
)

// benchProblem mimics the PriSTE condition structure: a ∈ [0,1]ⁿ event
// probabilities, w mixing positive joint terms against negative marginal
// terms, q small.
func benchProblem(n int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	p := Problem{A: make(mat.Vector, n), W: make(mat.Vector, n), Q: make(mat.Vector, n)}
	for i := 0; i < n; i++ {
		p.A[i] = rng.Float64()
		c := rng.Float64()
		bjoint := c * rng.Float64() * p.A[i]
		p.W[i] = 0.6*bjoint - 1.6*c
		p.Q[i] = bjoint
	}
	return p
}

// BenchmarkSolve measures the certified condition check at the paper's
// map sizes; the release loop runs two of these per candidate.
func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{100, 400} {
		name := "m100"
		if n == 400 {
			name = "m400"
		}
		b.Run(name, func(b *testing.B) {
			p := benchProblem(n, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCheck is a release check with the PriSTE structure: ãᵢ event
// probabilities, c̃ marginals and b̃ ≤ c̃·ã joint terms.
func benchCheck(n int, seed int64) ReleaseCheck {
	rng := rand.New(rand.NewSource(seed))
	a := make(mat.Vector, n)
	c := make(mat.Vector, n)
	bt := make(mat.Vector, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64()
		c[i] = rng.Float64()
		bt[i] = c[i] * a[i] * rng.Float64()
	}
	return ReleaseCheck{ATilde: a, BTilde: bt, CTilde: c, Epsilon: 0.5}
}

// benchmarkCheckRelease measures the full two-condition release check at
// the paper's map sizes under opt.
func benchmarkCheckRelease(b *testing.B, opt ReleaseOptions) {
	for _, n := range []int{100, 400, 900} {
		b.Run(fmt.Sprintf("m%d", n), func(b *testing.B) {
			chk := benchCheck(n, 2)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := CheckRelease(chk, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckReleaseExact is the served configuration: the exact
// solver, selected by a zero deadline.
func BenchmarkCheckReleaseExact(b *testing.B) {
	benchmarkCheckRelease(b, ReleaseOptions{})
}

// BenchmarkCheckReleaseBnB is the same check by branch-and-bound under a
// deadline long enough never to expire, so Exact/BnB is the in-run
// speed-up of the exact solver.
func BenchmarkCheckReleaseBnB(b *testing.B) {
	benchmarkCheckRelease(b, ReleaseOptions{Deadline: time.Hour})
}
