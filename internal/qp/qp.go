// Package qp decides the release conditions of Theorem IV.1. The paper
// delegates this to IBM CPLEX; this package is the from-scratch substitute.
//
// Both conditions (Eqs. 15 and 16) ask whether a quadratic function of the
// unknown initial probability π can be positive anywhere over the set of
// probability distributions. The PriSTE quadratic matrix is the rank-one
// product ã·wᵀ (projected to the first m coordinates), so the objective
// always has the form
//
//	g(π) = (π·a)(π·w) + q·π ,   a ≥ 0,  π ∈ Δ = {π ≥ 0, Σπᵢ = 1}.
//
// The paper's statement of the constraints lists only 0 ≤ πᵢ ≤ 1, but its
// derivation of Eqs. (15)/(16) from Definition II.4 uses π·1 = 1, and its
// claim that a fully-uninformative mechanism (α = 0) always satisfies the
// conditions holds only on the simplex — so Δ is the correct feasible set
// and the one implemented here.
//
// # Exact solver
//
// g always has a maximiser with at most two nonzero coordinates. Let π*
// be any maximiser and fix s = π*·a. The linear program
//
//	max (s·w + q)·π   subject to  π ∈ Δ,  a·π = s
//
// has two equality constraints (Σπᵢ = 1 and a·π = s), so it has a basic
// optimum π' with at most two nonzero coordinates. π* is feasible for it,
// and every feasible π has π·a = s, where g(π) = (s·w + q)·π; hence
// g(π') ≥ g(π*), and π' is a maximiser too. The exact maximum is thus the
// best vertex value aᵢwᵢ+qᵢ or the interior peak of g along one edge
// λeᵢ+(1−λ)eⱼ, a concave quadratic in λ with a closed-form peak. The
// solver first checks the best vertex, then tries the O(n log n) envelope
// bound below on the whole simplex, and only when neither decides scans
// all O(n²) edges, stopping at the first violation. It needs no heap,
// node budget or deadline.
//
// Floating-point rounding is bounded by an explicit margin,
// 64·2⁻⁵²·(1 + max a·max|w| + max|q|) (see roundingMargin). A maximum
// within the margin of Tol cannot be placed on either side of it, so the
// verdict is Unknown and the caller rejects the candidate — the paper's
// conservative "not sure ⇒ don't release" rule (§IV-C), but decided by
// the inputs alone, never by load. CheckRelease uses this solver whenever
// ReleaseOptions.Deadline is zero, which is every served step.
//
// # Branch-and-bound
//
// Solve performs branch-and-bound on the scalar s = π·a, which over Δ
// ranges in [min aᵢ, max aᵢ]. For an interval [sl, sh] every feasible π
// satisfies
//
//	g(π) ≤ max( (sl·w + q)·π , (sh·w + q)·π )
//
// and maximising a linear function c·π over {π ∈ Δ, sl ≤ π·a ≤ sh} is an
// exact O(n log n) problem: h(s) = max{c·π : π ∈ Δ, a·π = s} is the upper
// concave envelope of the points (aᵢ, cᵢ), so the node bound is the
// envelope's maximum over [sl, sh]. Upper bounds are therefore certified.
// Its node budget and Options.Deadline give the paper's CPLEX time
// threshold; CheckRelease runs it only under a positive
// ReleaseOptions.Deadline, which the Table III time-threshold experiment
// sets. Tests also use it as the reference for the exact solver.
package qp

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"priste/internal/mat"
)

// Problem is: maximize (π·A)(π·W) + Q·π subject to π in the probability
// simplex. A must be elementwise non-negative.
type Problem struct {
	A, W, Q mat.Vector
}

// Validate checks dimensions and the sign restriction on A.
func (p Problem) Validate() error {
	n := len(p.A)
	if n == 0 {
		return fmt.Errorf("qp: empty problem")
	}
	if len(p.W) != n || len(p.Q) != n {
		return fmt.Errorf("qp: length mismatch A=%d W=%d Q=%d", n, len(p.W), len(p.Q))
	}
	for i, v := range p.A {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qp: A[%d] = %g must be finite and non-negative", i, v)
		}
	}
	for i := range p.W {
		if math.IsNaN(p.W[i]) || math.IsInf(p.W[i], 0) || math.IsNaN(p.Q[i]) || math.IsInf(p.Q[i], 0) {
			return fmt.Errorf("qp: W/Q contain non-finite values at %d", i)
		}
	}
	return nil
}

// Eval returns the objective value at π.
func (p Problem) Eval(pi mat.Vector) float64 {
	return pi.Dot(p.A)*pi.Dot(p.W) + pi.Dot(p.Q)
}

// Verdict classifies the outcome of a bound check.
type Verdict int

const (
	// Satisfied means the solver certified max g(π) ≤ Tol.
	Satisfied Verdict = iota
	// Violated means a π with g(π) > Tol was found.
	Violated
	// Unknown means Tol lies between the bounds: the branch-and-bound
	// budget ran out, or the exact maximum is within the rounding margin
	// of Tol.
	Unknown
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Satisfied:
		return "satisfied"
	case Violated:
		return "violated"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Options tunes the solver.
type Options struct {
	// Tol is the positivity threshold: values ≤ Tol count as "not a
	// violation". Should be a small positive number scaled to the
	// problem's magnitude. Default 1e-9.
	Tol float64
	// MaxNodes caps branch-and-bound nodes. Default 20000. This field,
	// Deadline and AscentPasses apply to branch-and-bound only.
	MaxNodes int
	// Deadline, if non-zero, aborts the search when exceeded, returning
	// Unknown (the paper's conservative-release time threshold).
	Deadline time.Duration
	// AscentPasses is the number of pairwise-exchange ascent sweeps used
	// to sharpen lower bounds at each node. Default 2.
	AscentPasses int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.AscentPasses <= 0 {
		o.AscentPasses = 2
	}
	return o
}

// Result reports the solver's conclusion and certificates.
type Result struct {
	Verdict Verdict
	// Lower is the best objective value found (a certified lower bound on
	// the maximum); BestPi attains it.
	Lower  float64
	BestPi mat.Vector
	// Upper is a certified upper bound on the maximum.
	Upper float64
	// Nodes is the number of branch-and-bound nodes processed (0 for the
	// exact solver).
	Nodes int
	// Elapsed is the wall time branch-and-bound spent (0 for the exact
	// solver).
	Elapsed time.Duration
}

type node struct {
	sl, sh float64
	ub     float64
}

type nodeHeap []node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].ub > h[j].ub } // max-heap on UB
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Solve maximises the problem over the simplex and classifies the result
// against opt.Tol.
func Solve(p Problem, opt Options) (Result, error) {
	start := time.Now()
	opt = opt.withDefaults()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := len(p.A)
	sMin, sMax := p.A.Min(), p.A.Max()

	ws := newWorkspace(p)

	best := Result{Lower: math.Inf(-1), Upper: math.Inf(1)}
	consider := func(pi mat.Vector) {
		if pi == nil {
			return
		}
		// The O(n²) pairwise ascent only pays off on candidates that are
		// already competitive; evaluate first and polish only those.
		v := p.Eval(pi)
		if v < best.Lower-0.1*math.Abs(best.Lower) {
			return
		}
		ws.ascent(pi, opt.AscentPasses)
		if v = p.Eval(pi); v > best.Lower {
			best.Lower = v
			best.BestPi = pi.Clone()
		}
	}

	// Seed with the best vertex (cheap: g(eᵢ) = aᵢwᵢ + qᵢ) and uniform.
	bi := 0
	bv := math.Inf(-1)
	for i := 0; i < n; i++ {
		if v := p.A[i]*p.W[i] + p.Q[i]; v > bv {
			bv, bi = v, i
		}
	}
	vert := mat.NewVector(n)
	vert[bi] = 1
	consider(vert)
	uni := mat.NewVector(n)
	for i := range uni {
		uni[i] = 1 / float64(n)
	}
	consider(uni)

	rootUB, rootPis := ws.nodeBound(sMin, sMax)
	for _, pi := range rootPis {
		consider(pi)
	}
	h := &nodeHeap{{sl: sMin, sh: sMax, ub: rootUB}}
	heap.Init(h)

	nodes := 0
	closedUB := math.Inf(-1) // max UB among nodes pruned without branching
	for h.Len() > 0 {
		if best.Lower > opt.Tol {
			break // violation certified
		}
		top := (*h)[0]
		if top.ub <= opt.Tol {
			break // satisfaction certified: no remaining node can exceed Tol
		}
		if top.ub-best.Lower <= opt.Tol {
			break // gap closed
		}
		if nodes >= opt.MaxNodes {
			break
		}
		if opt.Deadline > 0 && time.Since(start) > opt.Deadline {
			break
		}
		heap.Pop(h)
		nodes++
		mid := 0.5 * (top.sl + top.sh)
		for _, iv := range [][2]float64{{top.sl, mid}, {mid, top.sh}} {
			ub, pis := ws.nodeBound(iv[0], iv[1])
			for _, pi := range pis {
				consider(pi)
			}
			if ub > best.Lower || ub > opt.Tol {
				heap.Push(h, node{sl: iv[0], sh: iv[1], ub: ub})
			} else if ub > closedUB {
				// Pruned node: its UB still caps the maximum on its region.
				closedUB = ub
			}
		}
	}
	best.Upper = math.Max(best.Lower, closedUB)
	if h.Len() > 0 {
		best.Upper = math.Max(best.Upper, (*h)[0].ub)
	}

	best.Nodes = nodes
	best.Elapsed = time.Since(start)
	switch {
	case best.Lower > opt.Tol:
		best.Verdict = Violated
	case best.Upper <= opt.Tol:
		best.Verdict = Satisfied
	default:
		best.Verdict = Unknown
	}
	return best, nil
}

// workspace holds the sorted-hull state reused by every LP subproblem. The
// hull's x-coordinates are the entries of A, which never change across
// nodes, so the sort order is computed once; each node only rebuilds the
// O(n) monotone-chain scan with its own y-values.
type workspace struct {
	p     Problem
	n     int
	order []int // indices sorted by (A[i], then i) ascending
	c     mat.Vector
	hull  []hullPt
}

func newWorkspace(p Problem) *workspace {
	n := len(p.A)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := p.A[order[x]], p.A[order[y]]
		if ax != ay {
			return ax < ay
		}
		return order[x] < order[y]
	})
	return &workspace{
		p: p, n: n, order: order,
		c:    make(mat.Vector, n),
		hull: make([]hullPt, 0, n),
	}
}

// nodeBound returns a certified upper bound for the node [sl,sh] and the
// candidate points produced by the two LP relaxations (for lower-bounding).
// An interval disjoint from [min a, max a] returns -Inf and no candidates.
func (w *workspace) nodeBound(sl, sh float64) (float64, []mat.Vector) {
	ub := math.Inf(-1)
	var cands []mat.Vector
	for _, s := range []float64{sl, sh} {
		pi := make(mat.Vector, w.n)
		val, feasible := w.linearMax(s, sl, sh, pi)
		if !feasible {
			return math.Inf(-1), nil
		}
		if val > ub {
			ub = val
		}
		cands = append(cands, pi)
	}
	return ub, cands
}

// linearMax maximises (s·W + Q)·π subject to π ∈ Δ and sl ≤ a·π ≤ sh,
// writing an optimal point into pi (zeroed by the caller) when pi is
// non-nil. It returns the optimal value and feasibility.
func (w *workspace) linearMax(s, sl, sh float64, pi mat.Vector) (float64, bool) {
	for i := range w.c {
		w.c[i] = s*w.p.W[i] + w.p.Q[i]
	}
	w.hull = buildHull(w.order, w.p.A, w.c, w.hull[:0])
	return evalHull(w.hull, sl, sh, pi)
}

// ascent performs pairwise-exchange sweeps on g over the simplex, improving
// pi in place. Transferring mass δ from coordinate i to j keeps π on the
// simplex, and g as a function of δ is an explicit quadratic maximised in
// closed form over the feasible transfer interval.
func (w *workspace) ascent(pi mat.Vector, passes int) {
	a, wv, q := w.p.A, w.p.W, w.p.Q
	n := w.n
	if n < 2 {
		return
	}
	s := pi.Dot(a)
	t := pi.Dot(wv)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				da := a[j] - a[i]
				dw := wv[j] - wv[i]
				dq := q[j] - q[i]
				// δ > 0 moves mass from i to j: δ ∈ [-π_j, π_i].
				qa := da * dw
				qb := s*dw + t*da + dq
				lo, hi := -pi[j], pi[i]
				d := bestQuadOnInterval(qa, qb, lo, hi)
				if d == 0 {
					continue
				}
				gain := qa*d*d + qb*d
				if gain <= 1e-15*(1+math.Abs(t)*math.Abs(s)) {
					continue
				}
				pi[i] -= d
				pi[j] += d
				s += d * da
				t += d * dw
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// bestQuadOnInterval maximises qa·x² + qb·x over [lo, hi] (lo ≤ 0 ≤ hi).
func bestQuadOnInterval(qa, qb, lo, hi float64) float64 {
	bx, bv := 0.0, 0.0
	try := func(x float64) {
		if v := qa*x*x + qb*x; v > bv {
			bx, bv = x, v
		}
	}
	try(lo)
	try(hi)
	if qa < 0 {
		if x := -qb / (2 * qa); x > lo && x < hi {
			try(x)
		}
	}
	return bx
}

// simplexLP maximises c·π subject to π ∈ Δ and sl ≤ a·π ≤ sh, with
// a ≥ 0. h(s) = max{c·π : π ∈ Δ, a·π = s} is the upper concave envelope of
// the point set {(aᵢ, cᵢ)}; the optimum over the interval is the
// envelope's peak clamped into [sl, sh]. It returns the optimal value, an
// optimal point (a vertex or a two-vertex mixture), and feasibility. This
// standalone form sorts per call; the solvers go through
// workspace.linearMax with the precomputed order instead.
func simplexLP(c, a mat.Vector, sl, sh float64) (float64, mat.Vector, bool) {
	order := make([]int, len(a))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := a[order[x]], a[order[y]]
		if ax != ay {
			return ax < ay
		}
		return order[x] < order[y]
	})
	pi := make(mat.Vector, len(a))
	val, ok := evalHull(buildHull(order, a, c, nil), sl, sh, pi)
	if !ok {
		return 0, nil, false
	}
	return val, pi, true
}

// evalHull returns the envelope's maximum over [sl, sh] and feasibility,
// writing the attaining mixture into pi when pi is non-nil.
func evalHull(hull []hullPt, sl, sh float64, pi mat.Vector) (float64, bool) {
	aMin, aMax := hull[0].x, hull[len(hull)-1].x
	if sh < aMin-1e-15 || sl > aMax+1e-15 {
		return 0, false
	}
	lo := math.Max(sl, aMin)
	hi := math.Min(sh, aMax)

	// The envelope is concave: its peak vertex is the global max; if the
	// peak lies outside [lo,hi], the max over the interval is at the
	// nearer endpoint.
	peak := 0
	for k := 1; k < len(hull); k++ {
		if hull[k].y > hull[peak].y {
			peak = k
		}
	}
	switch {
	case hull[peak].x >= lo && hull[peak].x <= hi:
		return hullVertex(hull[peak], pi), true
	case hull[peak].x < lo:
		return hullInterp(hull, lo, pi), true
	default:
		return hullInterp(hull, hi, pi), true
	}
}

type hullPt struct {
	x, y float64
	i    int // original index
}

// buildHull returns the upper concave hull of {(a_i, c_i)} using a
// precomputed x-ascending index order, appending into dst.
func buildHull(order []int, a, c mat.Vector, dst []hullPt) []hullPt {
	hull := dst
	for k := 0; k < len(order); k++ {
		idx := order[k]
		// Collapse runs of equal x to their max y (the order is stable on
		// x, so a run is contiguous).
		x, y := a[idx], c[idx]
		for k+1 < len(order) && a[order[k+1]] == x {
			k++
			if c[order[k]] > y {
				y, idx = c[order[k]], order[k]
			}
		}
		p := hullPt{x: x, y: y, i: idx}
		for len(hull) >= 2 {
			p1, p2 := hull[len(hull)-2], hull[len(hull)-1]
			// Remove p2 if it is below segment p1-p.
			if cross(p1, p2, p) >= 0 {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	return hull
}

// cross is the z-component of (b-a)×(c-a); ≥ 0 means b is not strictly
// above the a-c line (so b is redundant for the upper hull).
func cross(a, b, c hullPt) float64 {
	return (b.x-a.x)*(c.y-a.y) - (c.x-a.x)*(b.y-a.y)
}

// hullInterp evaluates the envelope at x and, when pi is non-nil, writes
// the attaining mixture into it (zeroed by the caller). Returns the value.
func hullInterp(hull []hullPt, x float64, pi mat.Vector) float64 {
	if x <= hull[0].x {
		return hullVertex(hull[0], pi)
	}
	last := hull[len(hull)-1]
	if x >= last.x {
		return hullVertex(last, pi)
	}
	k := sort.Search(len(hull), func(k int) bool { return hull[k].x >= x })
	p1, p2 := hull[k-1], hull[k]
	lam := (p2.x - x) / (p2.x - p1.x)
	if pi != nil {
		pi[p1.i] = lam
		pi[p2.i] = 1 - lam
	}
	return lam*p1.y + (1-lam)*p2.y
}

// hullVertex returns the envelope value at hull point p and, when pi is
// non-nil, marks p's vertex in it.
func hullVertex(p hullPt, pi mat.Vector) float64 {
	if pi != nil {
		pi[p.i] = 1
	}
	return p.y
}
