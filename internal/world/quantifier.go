package world

import (
	"fmt"
	"math"

	"priste/internal/mat"
	"priste/internal/par"
	"priste/internal/qp"
)

// Quantifier is the streaming privacy-loss quantifier of Algorithm 2: it
// maintains the forward operator A = [A_F | A_T] ∈ R^{m×2m} mapping an
// unknown initial probability π to the augmented forward vector, and —
// after the event window — the backward accumulator B (a single m×m block,
// because the augmented after-event factors are block-diagonal with equal
// blocks).
//
// For each timestamp the caller first calls Check with a candidate
// emission column (the quantities ã, b̃, c̃ of Theorem IV.1 for the
// candidate observation) and, once a candidate is accepted, Commit with
// the released observation's emission column.
//
// To avoid underflow over long horizons the internal operators are
// renormalised whenever their magnitude drifts out of a wide safe band
// (see renormalise); b̃ and c̃ therefore carry a shared unknown scale
// exp(LogScale), which cancels in the Theorem IV.1 conditions and is
// exposed for callers needing absolute probabilities.
type Quantifier struct {
	md *Model

	af, at *mat.Matrix // committed forward blocks, m×m each
	b1     *mat.Matrix // backward block, valid once t > end
	t      int         // next timestamp to be observed (0-based)

	logScale float64

	// fp is the rolling FNV-1a fingerprint of the committed release tags
	// (see CommitTagged); it identifies the committed-column history for
	// the certified-release cache.
	fp uint64

	atilde mat.Vector

	// fwdBand and b1Band track the live bandwidth of the forward
	// operators and the backward accumulator: each committed step widens
	// the band by the step matrix's bandwidth (clamped at m−1 = full).
	// The adaptive dense dispatch uses them to run banded products while
	// they beat dense flops.
	fwdBand, b1Band int

	// scratch. Check and Current are zero-allocation: each writes its
	// b̃/c̃ into its own pair of reusable buffers (checkB/checkC and
	// curB/curC), which the returned ReleaseCheck aliases — see the
	// ownership contract on Check. tmp1/tmp2/uvec hold matvec
	// intermediates; mx/my the Commit matrix products.
	tmp1, tmp2, uvec mat.Vector
	checkB, checkC   mat.Vector
	curB, curC       mat.Vector
	mx, my           *mat.Matrix
}

// NewQuantifier returns a fresh quantifier at time 0.
func NewQuantifier(md *Model) *Quantifier {
	m := md.m
	q := &Quantifier{
		md:     md,
		fp:     fpOffset,
		af:     mat.NewMatrix(m, m),
		at:     mat.NewMatrix(m, m),
		b1:     mat.Identity(m),
		atilde: md.ATilde(),
		tmp1:   mat.NewVector(m),
		tmp2:   mat.NewVector(m),
		uvec:   mat.NewVector(m),
		checkB: mat.NewVector(m),
		checkC: mat.NewVector(m),
		curB:   mat.NewVector(m),
		curC:   mat.NewVector(m),
		mx:     mat.NewMatrix(m, m),
		my:     mat.NewMatrix(m, m),
	}
	return q
}

// T returns the next timestamp to be observed.
func (q *Quantifier) T() int { return q.t }

// LogScale returns the accumulated log of the normalisation factors; the
// true joint probabilities are the reported b̃/c̃ times exp(LogScale).
func (q *Quantifier) LogScale() float64 { return q.logScale }

// ATilde returns ã (shared storage; do not mutate).
func (q *Quantifier) ATilde() mat.Vector { return q.atilde }

// Check computes the Theorem IV.1 vectors for observing a candidate with
// emission column emis (emis[i] = Pr(o | u_t = s_i)) at the quantifier's
// current timestamp, without committing it.
//
// Zero-allocation contract: the returned b̃/c̃ alias buffers owned by the
// quantifier and are overwritten by the next Check call (Commit and
// Current leave them intact). The LPPM candidate loop calls Check once
// per candidate and consumes the result before the next draw, so the
// reuse is free; callers needing the vectors past the next Check must
// clone them.
func (q *Quantifier) Check(emis mat.Vector) (qp.ReleaseCheck, error) {
	if err := q.validateEmission(emis); err != nil {
		return qp.ReleaseCheck{}, err
	}
	return q.CheckTrusted(emis), nil
}

// CheckTrusted is Check without the O(m) emission validation sweep, for
// callers whose columns come from an already-validated source (the
// engine's emission tables validate at build; see lppm.EmissionTable).
// Same zero-allocation buffer contract as Check.
func (q *Quantifier) CheckTrusted(emis mat.Vector) qp.ReleaseCheck {
	m := q.md.m
	b, c := q.checkB, q.checkC
	switch {
	case q.t == 0:
		// b̃ᵢ = emisᵢ·ãᵢ, c̃ᵢ = emisᵢ.
		for i := 0; i < m; i++ {
			b[i] = emis[i] * q.atilde[i]
			c[i] = emis[i]
		}
	case q.t <= q.md.end:
		ft, tt := q.md.stepMasks(q.t - 1)
		k := q.md.kernel(q.t - 1)
		vF, vT := q.md.vF[q.t], q.md.vT[q.t]
		// uF = M·((1−ft)∘(emis∘vF) + ft∘(emis∘vT))
		for i := 0; i < m; i++ {
			q.tmp1[i] = emis[i] * ((1-ft[i])*vF[i] + ft[i]*vT[i])
		}
		k.mulVecInto(q.uvec, q.tmp1)
		q.fwdMulVec(q.af, b, q.uvec)
		// uT likewise with the true-world mask.
		for i := 0; i < m; i++ {
			q.tmp1[i] = emis[i] * ((1-tt[i])*vF[i] + tt[i]*vT[i])
		}
		k.mulVecInto(q.uvec, q.tmp1)
		q.fwdMulVec(q.at, q.tmp2, q.uvec)
		b.AddInto(b, q.tmp2)
		// c̃ = (A_F + A_T)·(M·emis)
		k.mulVecInto(q.uvec, emis)
		q.fwdMulVec(q.af, c, q.uvec)
		q.fwdMulVec(q.at, q.tmp2, q.uvec)
		c.AddInto(c, q.tmp2)
	default: // q.t > end
		k := q.md.kernel(q.t - 1)
		k.mulVecInto(q.uvec, emis)
		z := q.b1.VecMulInto(q.tmp2, q.uvec) // row: (M·emis)ᵀ·B₁
		q.fwdMulVec(q.at, b, z)
		q.fwdMulVec(q.af, c, z)
		c.AddInto(c, b)
	}
	return qp.ReleaseCheck{ATilde: q.atilde, BTilde: b, CTilde: c}
}

// fwdMulVec computes dst = a·x for a forward operator (af or at),
// restricting the row dots to the operator's tracked band when it is
// worthwhile — bit-identical to the full dot, since the skipped entries
// are exact zeros. The oracle mode keeps the plain loop.
func (q *Quantifier) fwdMulVec(a *mat.Matrix, dst, x mat.Vector) {
	if q.md.opts.Kernel != KernelOracle && 2*q.fwdBand+1 < q.md.m {
		mat.MulVecBandInto(dst, a, x, q.fwdBand)
		return
	}
	a.MulVecInto(dst, x)
}

// Current returns the Theorem IV.1 vectors for the already-committed
// observation prefix (no candidate). Before any commit, b̃ = ã and c̃ = 1.
// Like Check, the returned b̃/c̃ alias quantifier-owned buffers (a
// separate pair, so a held Check result survives a Commit+Current) and
// are overwritten by the next Current call.
func (q *Quantifier) Current() qp.ReleaseCheck {
	b, c := q.curB, q.curC
	switch {
	case q.t == 0:
		copy(b, q.atilde)
		for i := range c {
			c[i] = 1
		}
	case q.t-1 <= q.md.end:
		vF, vT := q.md.vF[q.t-1], q.md.vT[q.t-1]
		q.af.MulVecInto(b, vF)
		q.at.MulVecInto(q.tmp2, vT)
		b.AddInto(b, q.tmp2)
		q.af.MulVecInto(c, q.md.ones)
		q.at.MulVecInto(q.tmp2, q.md.ones)
		c.AddInto(c, q.tmp2)
	default:
		z := q.b1.VecMulInto(q.tmp2, q.md.ones)
		q.at.MulVecInto(b, z)
		q.af.MulVecInto(c, z)
		c.AddInto(c, b)
	}
	return qp.ReleaseCheck{ATilde: q.atilde, BTilde: b, CTilde: c}
}

// Commit folds the released observation's emission column into the
// quantifier state and advances time. Each branch computes the largest
// absolute operator entry as a byproduct of its final write pass, so the
// renormalisation check costs no extra sweep.
func (q *Quantifier) Commit(emis mat.Vector) error {
	if err := q.validateEmission(emis); err != nil {
		return err
	}
	q.commitTrusted(emis)
	return nil
}

// commitTrusted is Commit without the emission validation sweep.
func (q *Quantifier) commitTrusted(emis mat.Vector) {
	m := q.md.m
	var scale float64
	switch {
	case q.t == 0:
		mask0 := q.md.mask0
		q.af.Zero()
		q.at.Zero()
		for i := 0; i < m; i++ {
			f := (1 - mask0[i]) * emis[i]
			tr := mask0[i] * emis[i]
			q.af.Set(i, i, f)
			q.at.Set(i, i, tr)
			scale = math.Max(scale, math.Max(math.Abs(f), math.Abs(tr)))
		}
		q.fwdBand = 0
	case q.t <= q.md.end:
		ft, tt := q.md.stepMasks(q.t - 1)
		k := q.md.kernel(q.t - 1)
		k.forwardMul(q.mx, q.af, q.fwdBand, &q.md.kc) // X = A_F·M
		k.forwardMul(q.my, q.at, q.fwdBand, &q.md.kc) // Y = A_T·M
		scale = q.maskAndScale(ft, tt, emis)
		q.fwdBand = min(q.fwdBand+k.bw, m-1)
	default: // q.t > end: B₁ ← diag(emis)·Mᵀ·B₁
		k := q.md.kernel(q.t - 1)
		k.backwardMul(q.mx, q.b1, q.b1Band, q.my, &q.md.kc)
		scale = mat.ScaleRowsMaxInto(q.b1, q.mx, emis)
		q.b1Band = min(q.b1Band+k.bw, m-1)
	}
	q.t++
	q.renormalise(scale)
}

// maskFlopsCutoff is the multiply-add count above which maskAndScale
// splits its rows across CPUs: with the matrix products on the sparse
// path this O(m²) loop dominates Commit, and at the paper's m=400 the
// 4·m² ≈ 6.4·10⁵ multiply-adds comfortably amortise goroutine start-up.
const maskFlopsCutoff = 1 << 17

// maskAndScale folds the step masks and the emission column into the
// forward blocks: A_F' = X·diag(1−ft) + Y·diag(1−tt), A_T' = X·diag(ft)
// + Y·diag(tt), both column-scaled by the emission, and returns the
// largest absolute entry written (fused so renormalisation needs no
// second sweep of the operators). Row tiles go through the shared pool
// with fixed boundaries and a single writer per row, so the split is
// bit-deterministic; the max reduction is exact under any split. The
// serial path materialises no closure (commit stays allocation-free).
func (q *Quantifier) maskAndScale(ft, tt, emis mat.Vector) float64 {
	m := q.md.m
	if !par.Default().Parallel(m, 4*int64(m)*int64(m), maskFlopsCutoff) {
		return q.maskRows(ft, tt, emis, 0, m)
	}
	return par.Default().ForMax(m, func(lo, hi int) float64 {
		return q.maskRows(ft, tt, emis, lo, hi)
	})
}

// maskRows runs the fused mask+emission+max loop over rows [lo,hi).
func (q *Quantifier) maskRows(ft, tt, emis mat.Vector, lo, hi int) float64 {
	m := q.md.m
	var best float64
	for i := lo; i < hi; i++ {
		xr := q.mx.Row(i)
		yr := q.my.Row(i)
		fr := q.af.Row(i)
		trw := q.at.Row(i)
		for j := 0; j < m; j++ {
			f := (xr[j]*(1-ft[j]) + yr[j]*(1-tt[j])) * emis[j]
			tr := (xr[j]*ft[j] + yr[j]*tt[j]) * emis[j]
			fr[j] = f
			trw[j] = tr
			if f = math.Abs(f); f > best {
				best = f
			}
			if tr = math.Abs(tr); tr > best {
				best = tr
			}
		}
	}
	return best
}

// FNV-1a parameters for the rolling history fingerprint.
const (
	fpOffset uint64 = 14695981039346656037
	fpPrime  uint64 = 1099511628211
)

// FingerprintSeed is the rolling history fingerprint of an empty release
// history (the FNV-1a offset basis). A quantifier that has committed
// nothing reports exactly this value.
const FingerprintSeed uint64 = fpOffset

// fpFold mixes one 64-bit word into the fingerprint byte-wise.
func fpFold(fp, word uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		fp ^= (word >> shift) & 0xff
		fp *= fpPrime
	}
	return fp
}

// FingerprintFold folds one (alphaBits, obs) release tag into a rolling
// history fingerprint, exactly as CommitTagged does. It lets persistence
// layers verify a tag log's fingerprint chain without instantiating a
// quantifier: folding a session's tags in order from FingerprintSeed must
// reproduce the fingerprint its quantifiers report.
func FingerprintFold(fp, alphaBits uint64, obs int) uint64 {
	return fpFold(fpFold(fp, alphaBits), uint64(obs))
}

// HistoryFingerprint returns the rolling fingerprint of the release tags
// committed via CommitTagged. For a history-independent mechanism the tag
// sequence — (alphaBits, obs) per timestamp, alphaBits 0 for the uniform
// fallback — fully determines every committed emission column, so two
// quantifiers over the same model with equal fingerprints are (modulo a
// negligible 64-bit collision probability) in identical states. Commits
// made with plain Commit leave the fingerprint unchanged and make it
// meaningless; cache users must commit exclusively through CommitTagged.
func (q *Quantifier) HistoryFingerprint() uint64 { return q.fp }

// CommitTagged commits the released observation's emission column (as
// Commit) and folds its (alphaBits, obs) release tag into the rolling
// history fingerprint consumed by the certified-release cache.
func (q *Quantifier) CommitTagged(emis mat.Vector, alphaBits uint64, obs int) error {
	if err := q.Commit(emis); err != nil {
		return err
	}
	q.fp = FingerprintFold(q.fp, alphaBits, obs)
	return nil
}

// CommitTaggedTrusted is CommitTagged without the emission validation
// sweep (see CheckTrusted for the trust contract).
func (q *Quantifier) CommitTaggedTrusted(emis mat.Vector, alphaBits uint64, obs int) {
	q.commitTrusted(emis)
	q.fp = FingerprintFold(q.fp, alphaBits, obs)
}

// Lazy-renormalisation band: the rescale exists only to keep the
// operators away from floating-point under/overflow over long horizons,
// so it fires when the largest entry leaves [1e-100, 1e100] instead of
// on every commit — the O(m²) Scale pass drops off the hot path. The
// m-term matvec sums of Check have ~1e208 of headroom left above the
// band, and entries more than ~1e208 below the committed maximum flush
// to denormals exactly as they would have under per-commit rescaling.
const (
	rescaleLo = 1e-100
	rescaleHi = 1e100
)

// renormalise rescales the active operator so its largest entry — scale,
// computed by Commit as a byproduct of its final write pass — becomes 1,
// accumulating the factor in logScale; it is a no-op while scale sits
// inside the lazy band. A zero operator (an impossible observation
// sequence) is left as-is; Check/Current then return all-zero b̃/c̃,
// which CheckRelease treats as trivially safe. Both kernel paths commit
// bit-identical operators, so they rescale at the same timestamps by the
// same factors.
func (q *Quantifier) renormalise(scale float64) {
	if scale == 0 || (scale >= rescaleLo && scale <= rescaleHi) {
		return
	}
	if q.t-1 <= q.md.end {
		q.af.Scale(1 / scale)
		q.at.Scale(1 / scale)
	} else {
		q.b1.Scale(1 / scale)
	}
	q.logScale += math.Log(scale)
}

func (q *Quantifier) validateEmission(emis mat.Vector) error {
	if len(emis) != q.md.m {
		return fmt.Errorf("world: emission column length %d want %d", len(emis), q.md.m)
	}
	for i, v := range emis {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("world: emission[%d] = %g invalid", i, v)
		}
	}
	return nil
}

// JointAndMarginal runs a fresh quantifier over a full observation
// sequence and returns Pr(EVENT, o₀..o_{T-1}) and Pr(o₀..o_{T-1}) for a
// fixed initial probability. Emission columns are supplied per timestamp.
// This is the direct evaluation of Lemmas III.2/III.3 used in tests and
// the Fig. 14 harness.
func JointAndMarginal(md *Model, pi mat.Vector, emissions []mat.Vector) (joint, marginal float64, err error) {
	if len(pi) != md.m {
		return 0, 0, fmt.Errorf("world: pi length %d want %d", len(pi), md.m)
	}
	q := NewQuantifier(md)
	for _, e := range emissions {
		if err := q.Commit(e); err != nil {
			return 0, 0, err
		}
	}
	chk := q.Current()
	scale := math.Exp(q.LogScale())
	return pi.Dot(chk.BTilde) * scale, pi.Dot(chk.CTilde) * scale, nil
}

// PrivacyLoss returns the realised ε of Definition II.4 for a fixed
// initial probability after observing the given sequence: the max of the
// two log-ratios between Pr(o|EVENT) and Pr(o|¬EVENT).
func PrivacyLoss(md *Model, pi mat.Vector, emissions []mat.Vector) (float64, error) {
	if len(pi) != md.m {
		return 0, fmt.Errorf("world: pi length %d want %d", len(pi), md.m)
	}
	q := NewQuantifier(md)
	for _, e := range emissions {
		if err := q.Commit(e); err != nil {
			return 0, err
		}
	}
	return qp.FixedPiLoss(q.Current(), pi)
}
