package qp

import (
	"math"

	"priste/internal/mat"
)

// marginUlps is the rounding allowance, in units of 2⁻⁵², of every value
// the exact solver computes (see roundingMargin).
const marginUlps = 64

// roundingMargin bounds the floating-point error of the objective values
// the exact solver computes for p: 64·2⁻⁵²·(1 + max a·max|w| + max|q|).
// Every such value — a vertex aᵢwᵢ+qᵢ, an edge peak, an envelope vertex —
// is a short chain of products and sums of terms whose magnitudes the
// bracket bounds, so its computed value lies within the margin of the
// true one.
func roundingMargin(p Problem) float64 {
	return marginUlps * 0x1p-52 * (1 + p.A.AbsMax()*p.W.AbsMax() + p.Q.AbsMax())
}

// exact decides the workspace's problem against tol. With rm the rounding
// margin, the verdict on the computed maximum is
//
//	Satisfied  if max g ≤ tol − rm
//	Violated   if max g > tol + rm
//	Unknown    otherwise,
//
// so a maximum the arithmetic cannot place on one side of tol is rejected
// conservatively (§IV-C), deterministically. It takes the cheapest
// argument that decides: the best vertex, then the root envelope bound,
// then the O(n²) edge scan, which stops at the first value above tol + rm.
// Lower is the largest value found and BestPi attains it; Upper is the
// bound or maximum that decided plus rm (so Satisfied ⇔ Upper ≤ tol),
// or +Inf on a violation, which stops before the maximum is known.
func (w *workspace) exact(tol float64) Result {
	rm := roundingMargin(w.p)
	bi, best := bestVertex(w.p)
	res := Result{Lower: best, Upper: math.Inf(1), BestPi: mat.NewVector(w.n)}
	res.BestPi[bi] = 1
	if best > tol+rm {
		res.Verdict = Violated
		return res
	}
	if ub := w.rootBound(); ub <= tol-rm {
		res.Verdict, res.Upper = Satisfied, ub+rm
		return res
	}
	v, i, j, lam := w.edgeScan(tol + rm)
	if v > best {
		res.Lower = v
		res.BestPi[bi] = 0
		res.BestPi[i], res.BestPi[j] = lam, 1-lam
	}
	switch {
	case res.Lower > tol+rm: // the scan stopped early
		res.Verdict = Violated
	case res.Lower <= tol-rm:
		res.Verdict, res.Upper = Satisfied, res.Lower+rm
	default:
		res.Verdict, res.Upper = Unknown, res.Lower+rm
	}
	return res
}

// bestVertex returns the vertex eᵢ with the largest g(eᵢ) = aᵢwᵢ+qᵢ.
func bestVertex(p Problem) (bi int, best float64) {
	best = math.Inf(-1)
	for i := range p.A {
		if v := p.A[i]*p.W[i] + p.Q[i]; v > best {
			bi, best = i, v
		}
	}
	return bi, best
}

// rootBound is the envelope bound of the root node [min a, max a]: the
// larger of the two linear maxima max (s·w+q)·π at s = min a and max a,
// which caps g over the whole simplex. Unlike nodeBound it builds no
// candidate points.
func (w *workspace) rootBound() float64 {
	sl, sh := w.p.A[w.order[0]], w.p.A[w.order[w.n-1]]
	lo, _ := w.linearMax(sl, sl, sh, nil)
	hi, _ := w.linearMax(sh, sl, sh, nil)
	return math.Max(lo, hi)
}

// edgeScan returns the largest interior peak of g over the edges
// λeᵢ+(1−λ)eⱼ, i ≠ j, and where it lies; v is -Inf when no edge has an
// interior peak. Along an edge, with da = aᵢ−aⱼ, dw = wᵢ−wⱼ,
//
//	g(λ) = aⱼwⱼ+qⱼ + qb·λ + da·dw·λ²,   qb = aⱼ·dw + wⱼ·da + qᵢ−qⱼ,
//
// whose only interior maximum is at λ* = −qb/(2·da·dw) when da·dw < 0
// and λ* ∈ (0,1), with value aⱼwⱼ+qⱼ + ½·qb·λ*. The endpoints are the
// vertices, which the caller has already seen. The scan stops at the
// first peak above stop.
func (w *workspace) edgeScan(stop float64) (v float64, i, j int, lam float64) {
	a, wv, q := w.p.A, w.p.W, w.p.Q
	v = math.Inf(-1)
	for jj := range a {
		aj, wj, qj := a[jj], wv[jj], q[jj]
		gj := aj*wj + qj
		for ii := jj + 1; ii < len(a); ii++ {
			da := a[ii] - aj
			dw := wv[ii] - wj
			qa := da * dw
			if qa >= 0 {
				continue
			}
			qb := aj*dw + wj*da + (q[ii] - qj)
			l := -qb / (2 * qa)
			if l <= 0 || l >= 1 {
				continue
			}
			if g := gj + 0.5*qb*l; g > v {
				v, i, j, lam = g, ii, jj, l
				if v > stop {
					return v, i, j, lam
				}
			}
		}
	}
	return v, i, j, lam
}
