package qp

import (
	"fmt"
	"math"
	"time"

	"priste/internal/mat"
)

// ReleaseCheck bundles the two Theorem IV.1 conditions for one candidate
// perturbed location. With ã, b̃, c̃ the first-m projections of the
// vectors of Eqs. (17)–(20),
//
//	Eq. 15 ⇔ max_π (π·ã)(π·w₁) + π·b̃      ≤ 0, w₁ = (e^ε−1)·b̃ − e^ε·c̃
//	Eq. 16 ⇔ max_π (π·ã)(π·w₂) − e^ε·(π·b̃) ≤ 0, w₂ = (e^ε−1)·b̃ + c̃
//
// where both maxima range over the simplex Δ of initial distributions π
// (the expansion uses π·1 = 1; see the package documentation).
type ReleaseCheck struct {
	// ATilde is ã: ãᵢ = Pr(EVENT | u₀ = sᵢ).
	ATilde mat.Vector
	// BTilde is b̃: b̃ᵢ ∝ Pr(EVENT, o₀..o_t | u₀ = sᵢ).
	BTilde mat.Vector
	// CTilde is c̃: c̃ᵢ ∝ Pr(o₀..o_t | u₀ = sᵢ). BTilde and CTilde must
	// share a scale; their common normalisation is irrelevant because both
	// conditions are homogeneous of degree one in (b̃, c̃).
	CTilde mat.Vector
	// Epsilon is the ε of ε-spatiotemporal event privacy.
	Epsilon float64
}

// ReleaseOptions tunes the two condition solves.
type ReleaseOptions struct {
	// Solver options applied to each condition. Tol is interpreted
	// relative to the scale of the normalised problem; the other fields
	// apply only to branch-and-bound, that is with a positive Deadline.
	Solver Options
	// Deadline, when positive, is the total branch-and-bound budget across
	// both conditions (the paper's conservative-release threshold, which
	// the Table III experiment varies). Zero selects the exact solver,
	// whose verdict depends only on the inputs.
	Deadline time.Duration
}

// ReleaseDecision is the outcome of checking both conditions.
type ReleaseDecision struct {
	OK bool // both conditions certified to hold
	// Eq15 and Eq16 are the individual solver results.
	Eq15, Eq16 Result
	// Conservative is true when OK is false only because a verdict was
	// Unknown (a maximum within the rounding margin of Tol, or an expired
	// branch-and-bound budget), not because a violation was found.
	Conservative bool
}

// CheckRelease decides whether releasing the candidate observation
// preserves ε-spatiotemporal event privacy for every initial probability
// π ∈ Δ. Following the paper's conservative release, OK is true only when
// both maxima are certified not to exceed Tol.
func CheckRelease(chk ReleaseCheck, opt ReleaseOptions) (ReleaseDecision, error) {
	n := len(chk.ATilde)
	if len(chk.BTilde) != n || len(chk.CTilde) != n {
		return ReleaseDecision{}, fmt.Errorf("qp: release check length mismatch a=%d b=%d c=%d",
			n, len(chk.BTilde), len(chk.CTilde))
	}
	if chk.Epsilon <= 0 || math.IsNaN(chk.Epsilon) || math.IsInf(chk.Epsilon, 0) {
		return ReleaseDecision{}, fmt.Errorf("qp: epsilon must be positive and finite, got %g", chk.Epsilon)
	}
	// Joint rescale of (b̃, c̃) for numerical health; the conditions are
	// invariant under this scaling.
	scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
	if scale == 0 {
		// Observations impossible under every starting state: nothing is
		// disclosed, release trivially safe.
		return ReleaseDecision{OK: true,
			Eq15: Result{Verdict: Satisfied},
			Eq16: Result{Verdict: Satisfied}}, nil
	}
	w1, q1, w2, q2 := releaseConditions(chk, scale)
	cs := newConditionSolver(chk.normalisedOptions(opt), opt.Deadline)
	dec := ReleaseDecision{}

	r15, err := cs.solve(Problem{A: chk.ATilde, W: w1, Q: q1})
	if err != nil {
		return ReleaseDecision{}, fmt.Errorf("qp: Eq.15 solve: %w", err)
	}
	dec.Eq15 = r15
	r16, err := cs.solve(Problem{A: chk.ATilde, W: w2, Q: q2})
	if err != nil {
		return ReleaseDecision{}, fmt.Errorf("qp: Eq.16 solve: %w", err)
	}
	dec.Eq16 = r16

	dec.OK = r15.Verdict == Satisfied && r16.Verdict == Satisfied
	dec.Conservative = !dec.OK &&
		r15.Verdict != Violated && r16.Verdict != Violated
	return dec, nil
}

// releaseConditions builds the normalised linear data of the two
// Theorem IV.1 conditions: b̂ = b̃/scale, ĉ = c̃/scale, and
//
//	Eq. 15: w₁ = (e^ε−1)·b̂ − e^ε·ĉ, q₁ = b̂
//	Eq. 16: w₂ = (e^ε−1)·b̂ + ĉ,    q₂ = −e^ε·b̂
func releaseConditions(chk ReleaseCheck, scale float64) (w1, q1, w2, q2 mat.Vector) {
	n := len(chk.ATilde)
	inv := 1 / scale
	b := chk.BTilde.Clone().Scale(inv)
	eEps := math.Exp(chk.Epsilon)
	w1 = make(mat.Vector, n)
	q1 = b
	w2 = make(mat.Vector, n)
	q2 = make(mat.Vector, n)
	for i := 0; i < n; i++ {
		c := chk.CTilde[i] * inv
		w1[i] = (eEps-1)*b[i] - eEps*c
		w2[i] = (eEps-1)*b[i] + c
		q2[i] = -eEps * b[i]
	}
	return w1, q1, w2, q2
}

func (chk ReleaseCheck) normalisedOptions(opt ReleaseOptions) Options {
	so := opt.Solver
	if so.Tol <= 0 {
		so.Tol = 1e-9
	}
	return so
}

// conditionSolver solves the two conditions of one release check. With
// no deadline it runs the exact solver, sharing one workspace between the
// conditions (they have the same A, hence the same hull order); with a
// deadline it runs branch-and-bound against the remaining budget.
type conditionSolver struct {
	opt      Options
	deadline time.Time // zero: exact solver
	ws       *workspace
}

func newConditionSolver(opt Options, budget time.Duration) *conditionSolver {
	cs := &conditionSolver{opt: opt}
	if budget > 0 {
		cs.deadline = time.Now().Add(budget)
	}
	return cs
}

// solve decides p against the tolerance.
func (cs *conditionSolver) solve(p Problem) (Result, error) {
	if cs.deadline.IsZero() {
		if err := p.Validate(); err != nil {
			return Result{}, err
		}
		if cs.ws == nil {
			cs.ws = newWorkspace(p)
		} else {
			cs.ws.p = p
		}
		return cs.ws.exact(cs.opt.Tol), nil
	}
	so := cs.opt
	if rem := time.Until(cs.deadline); rem <= 0 {
		so.Deadline = time.Nanosecond
	} else if so.Deadline == 0 || rem < so.Deadline {
		so.Deadline = rem
	}
	return Solve(p, so)
}

// FixedPiLoss returns the realised privacy loss for a *known* initial
// probability π: the larger of the two log-ratios
//
//	ln Pr(o|EVENT)/Pr(o|¬EVENT)  and  ln Pr(o|¬EVENT)/Pr(o|EVENT).
//
// It reports an error when the event has prior 0 or 1 under π (the
// conditional ratio is undefined) or the observations are impossible.
func FixedPiLoss(chk ReleaseCheck, pi mat.Vector) (float64, error) {
	n := len(chk.ATilde)
	if len(pi) != n {
		return 0, fmt.Errorf("qp: pi length %d want %d", len(pi), n)
	}
	pe := pi.Dot(chk.ATilde)
	pj := pi.Dot(chk.BTilde)  // ∝ Pr(EVENT, o)
	pob := pi.Dot(chk.CTilde) // ∝ Pr(o)
	// An (almost) certain or impossible event has no deniability to lose;
	// the conditional ratio is undefined. The tolerance absorbs the
	// floating-point residue of priors that are exactly 0 or 1.
	const degenerate = 1e-9
	if pe <= degenerate || 1-pe <= degenerate {
		return 0, fmt.Errorf("qp: event prior %g degenerate under pi", pe)
	}
	if pob <= 0 {
		return 0, fmt.Errorf("qp: observations have zero probability under pi")
	}
	condE := pj / pe
	condNE := (pob - pj) / (1 - pe)
	if condE <= 0 && condNE <= 0 {
		return 0, fmt.Errorf("qp: degenerate conditionals")
	}
	if condE <= 0 || condNE <= 0 {
		return math.Inf(1), nil
	}
	r := math.Log(condE / condNE)
	return math.Abs(r), nil
}
