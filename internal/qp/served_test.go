package qp_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/eventspec"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/world"
)

// servedChecks harvests real Theorem IV.1 release checks by stepping core
// plans on the served default world (10×10, σ=1, PRESENCE 0-9@3-7, ε=0.5,
// α=1) with Planar Laplace and the δ-location set. A replica quantifier
// and mechanism follow each session's committed releases; at every step
// they produce the checks of several candidate budgets and observations,
// including ones the release loop never reaches.
func servedChecks(t *testing.T) []qp.ReleaseCheck {
	t.Helper()
	g, err := grid.New(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.GaussianChain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := g.States()
	events, err := eventspec.ParseAll([]string{"0-9@3-7"}, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := world.NewHomogeneous(chain)
	md, err := world.NewModel(tp, events[0])
	if err != nil {
		t.Fatal(err)
	}
	uniform := mat.NewVector(m)
	for i := range uniform {
		uniform[i] = 1 / float64(m)
	}
	mechs := map[string]func() (lppm.Perturber, error){
		"plm": func() (lppm.Perturber, error) { return lppm.NewPlanarLaplace(g), nil },
		"delta": func() (lppm.Perturber, error) {
			return lppm.NewDeltaLocationSet(g, chain, markov.Uniform(m), 0.05)
		},
	}
	const eps = 0.5
	var out []qp.ReleaseCheck
	for name, mf := range mechs {
		plan, err := core.NewPlan(mf, tp, events, core.DefaultConfig(eps, 1))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sess, err := plan.NewSession(core.NewSessionRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			mech, err := mf()
			if err != nil {
				t.Fatal(err)
			}
			q := world.NewQuantifier(md)
			traj := chain.SamplePath(rng, markov.Delta(m, rng.Intn(m)), 12)
			for step, loc := range traj {
				if err := mech.Begin(step); err != nil {
					t.Fatal(err)
				}
				for _, alpha := range []float64{1, 0.25, 1.0 / 16} {
					em, err := mech.Emission(alpha)
					if err != nil {
						t.Fatal(err)
					}
					for _, obs := range []int{loc, rng.Intn(m)} {
						chk := q.CheckTrusted(em.Col(obs))
						chk.Epsilon = eps
						out = append(out, chk)
					}
				}
				res, err := sess.Step(loc)
				if err != nil {
					t.Fatal(err)
				}
				col := uniform
				if !res.Uniform {
					em, err := mech.Emission(res.Alpha)
					if err != nil {
						t.Fatal(err)
					}
					col = em.Col(res.Obs)
				}
				q.CommitTaggedTrusted(col, math.Float64bits(res.Alpha), res.Obs)
				if err := mech.Observe(step, res.Obs, col); err != nil {
					t.Fatal(err)
				}
				if q.HistoryFingerprint() != sess.Fingerprint() {
					t.Fatalf("%s seed %d step %d: replica fell out of step with the session", name, seed, step)
				}
			}
		}
	}
	return out
}

// TestExactAgreesWithBranchAndBoundOnServedProblems runs the differential
// oracle on real Eq. 15/16 problems, and checks that CheckRelease on the
// exact path and on the branch-and-bound path agree.
func TestExactAgreesWithBranchAndBoundOnServedProblems(t *testing.T) {
	checks := servedChecks(t)
	const tol = 1e-9
	unknown, released := 0, 0
	for k, chk := range checks {
		p15, p16 := qp.ReleaseProblems(chk)
		for _, p := range []qp.Problem{p15, p16} {
			if _, bb := qp.AssertExactAgainstBnB(t, p, tol, 20000); bb.Verdict == qp.Unknown {
				unknown++
			}
		}
		ex, err := qp.CheckRelease(chk, qp.ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bb, err := qp.CheckRelease(chk, qp.ReleaseOptions{Deadline: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if ex.OK != bb.OK && !bb.Conservative {
			t.Errorf("check %d: exact OK=%v, branch-and-bound OK=%v", k, ex.OK, bb.OK)
		}
		if ex.Conservative {
			t.Errorf("check %d: exact path rejected conservatively", k)
		}
		if ex.OK {
			released++
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if released == 0 || released == len(checks) {
		t.Fatalf("%d of %d checks released: the corpus must hold both outcomes", released, len(checks))
	}
	t.Logf("%d served checks, %d released; branch-and-bound unknown on %d of %d solves",
		len(checks), released, unknown, 2*len(checks))
}

// TestMarginRejectsConservatively: a condition whose maximum sits within
// the rounding margin of Tol is Unknown, the release is rejected as
// conservative, and the certified-release cache refuses the decision.
func TestMarginRejectsConservatively(t *testing.T) {
	for _, chk := range servedChecks(t) {
		p15, p16 := qp.ReleaseProblems(chk)
		max15, _ := qp.ExactMax(p15)
		max16, _ := qp.ExactMax(p16)
		// Tol at the larger maximum; the other condition must stay
		// decided.
		tol, lo, pLo := max15, max16, p16
		if max16 > max15 {
			tol, lo, pLo = max16, max15, p15
		}
		if tol <= 0 || lo > tol-2*qp.RoundingMargin(pLo) {
			continue
		}
		dec, err := qp.CheckRelease(chk, qp.ReleaseOptions{Solver: qp.Options{Tol: tol}})
		if err != nil {
			t.Fatal(err)
		}
		got := map[qp.Verdict]int{dec.Eq15.Verdict: 1}
		got[dec.Eq16.Verdict]++
		if got[qp.Unknown] != 1 || got[qp.Satisfied] != 1 {
			t.Fatalf("verdicts %v/%v, want one unknown and one satisfied", dec.Eq15.Verdict, dec.Eq16.Verdict)
		}
		if dec.OK || !dec.Conservative {
			t.Fatalf("decision %+v: want a conservative rejection", dec)
		}
		cache := certcache.New(16)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("certcache stored a conservative decision")
				}
			}()
			cache.Put(certcache.Key{}, dec)
		}()
		if cache.Len() != 0 {
			t.Fatalf("cache holds %d entries", cache.Len())
		}
		return
	}
	t.Fatal("no served check with a positive condition maximum clear of the other")
}
