package world

import (
	"sync/atomic"

	"priste/internal/mat"
)

// KernelMode selects how a Model compiles its per-timestamp transition
// matrices into step kernels.
type KernelMode int

const (
	// KernelAuto compiles a matrix to CSR when its density is at or
	// below the sparse threshold and keeps it dense otherwise. The two
	// paths are bit-for-bit equivalent (see mat.CSR), so the choice is
	// purely a performance decision.
	KernelAuto KernelMode = iota
	// KernelDense forces the dense kernels. The dense path dispatches
	// each operator product adaptively — banded while the tracked
	// operator bandwidth beats dense flops, otherwise the skip-based
	// naive loop below ~50% operator density and the blocked kernel
	// above it (the AVX2 micro-kernel where the CPU has it, the
	// register-tiled transpose kernel otherwise). All of them produce
	// bit-identical results (see mat.MulSIMDInto, mat.MulABtInto,
	// mat.MulBandInto).
	KernelDense
	// KernelSparse forces CSR regardless of density (test mode; a dense
	// matrix through CSR is slower, not wrong).
	KernelSparse
	// KernelOracle forces the naive dense reference kernels everywhere:
	// no CSR, no blocking, no banded dispatch. It is the bit-identical
	// oracle the cross-kernel equivalence tests and BENCH kernel
	// comparisons measure the adaptive paths against.
	KernelOracle
)

// String implements fmt.Stringer.
func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelDense:
		return "dense"
	case KernelSparse:
		return "sparse"
	case KernelOracle:
		return "oracle"
	default:
		return "KernelMode(?)"
	}
}

// DefaultSparseThreshold is the density at or below which KernelAuto
// compiles a transition matrix to CSR. CSR multiply-adds carry an index
// load each, so the break-even sits near 0.4–0.5 density; 0.25 leaves
// margin. Local mobility models (random walks, trained chains, truncated
// Gaussian kernels) sit far below it; an untruncated Gaussian chain is
// structurally dense and stays on the dense path.
const DefaultSparseThreshold = 0.25

// ModelOptions tunes model compilation.
type ModelOptions struct {
	// Kernel selects the transition-kernel compilation mode.
	Kernel KernelMode
	// SparseThreshold overrides DefaultSparseThreshold for KernelAuto;
	// zero or negative uses the default.
	SparseThreshold float64
}

func (o ModelOptions) threshold() float64 {
	if o.SparseThreshold > 0 {
		return o.SparseThreshold
	}
	return DefaultSparseThreshold
}

// MatrixLister is an optional TransitionProvider extension enumerating
// every distinct matrix the provider can return. Model compilation uses
// it to build the complete step-kernel set (CSR forms and transposes)
// up front, keeping the quantifier hot path lock- and allocation-free.
// Both built-in providers implement it; a provider that does not is
// probed over an initial window and falls back to per-call compilation
// beyond it.
type MatrixLister interface {
	DistinctMatrices() []*mat.Matrix
}

// stepKernel is one compiled transition matrix: the original dense form
// plus either its CSR form and CSR transpose (sparse path) or its dense
// transpose (dense path). For kernels retained in a Model's map the
// transpose is precomputed at compile time — once per Model, replacing
// the per-quantifier transpose cache that grew with the horizon under
// time-inhomogeneous chains. Kernels compiled on a cache miss (exotic
// providers only; call-private, never shared) defer it until the
// backward phase actually needs it.
type stepKernel struct {
	dense  *mat.Matrix
	denseT *mat.Matrix // non-nil iff csr == nil (once materialised)
	csr    *mat.CSR    // non-nil on the sparse path
	csrT   *mat.CSR

	// bw is the bandwidth of the transition matrix (largest |i−j| over
	// nonzeros): the amount each committed step widens the forward
	// operators' band. Computed for every mode; only the adaptive dense
	// dispatch consumes it.
	bw     int
	oracle bool
	// tHalfDense reports whether at least half of denseT is nonzero,
	// fixed at materialisation — the backward dispatch's density input,
	// scanned once per kernel instead of once per commit.
	tHalfDense bool
}

// compileKernel builds the kernel for one transition matrix. lazyT
// defers the transpose; pass false for kernels that will be shared
// (the transpose write in backwardMul is only safe call-private).
func compileKernel(m *mat.Matrix, opts ModelOptions, lazyT bool) *stepKernel {
	k := &stepKernel{dense: m, bw: mat.Bandwidth(m)}
	switch opts.Kernel {
	case KernelDense:
	case KernelOracle:
		k.oracle = true
	case KernelSparse:
		k.csr = mat.CSRFromDense(m)
	default:
		if c := mat.CSRFromDense(m); c.Density() <= opts.threshold() {
			k.csr = c
		}
	}
	if !lazyT {
		k.materialiseTranspose()
	}
	return k
}

// materialiseTranspose fills the path-appropriate transpose.
func (k *stepKernel) materialiseTranspose() {
	if k.csr != nil {
		k.csrT = k.csr.Transpose()
	} else {
		k.denseT = k.dense.Transpose()
		k.tHalfDense = halfDense(k.denseT)
	}
}

// sparse reports whether the kernel runs on the CSR path.
func (k *stepKernel) sparse() bool { return k.csr != nil }

// kernelCounters tallies adaptive dispatch decisions. A Model is shared
// across sessions, so the counters are atomic.
type kernelCounters struct {
	blocked atomic.Int64
	banded  atomic.Int64
}

// bandedWins reports whether a banded product over bands (aBand, bBand)
// beats the blocked dense kernel on an m×m product. The banded scatter
// costs ~2× per multiply-add what the register-blocked kernel does, so
// the band wins while its flop count is under half of m³. Bands at or
// beyond m−1 are full rows — banded degenerates to a slower naive loop.
func bandedWins(m, aBand, bBand int) bool {
	if aBand >= m-1 && bBand >= m-1 {
		return false
	}
	ka := min(aBand, m-1)
	kb := min(bBand, m-1)
	flops := int64(m) * int64(2*ka+1) * int64(2*kb+1)
	return 2*flops < int64(m)*int64(m)*int64(m)
}

// halfDense reports whether at least half of a's entries are nonzero:
// above that the blocked kernel beats the zero-skipping naive loop. The
// count stops at the half-way mark, so a dense operator is scanned only
// halfway.
func halfDense(a *mat.Matrix) bool {
	n := len(a.Data)
	return 2*a.NNZUpTo((n+1)/2) >= n
}

// mulVecInto stores M·x into dst. dst must not alias x. The dense
// non-oracle path restricts the row dots to M's band (bit-identical:
// the skipped entries are exact zeros).
func (k *stepKernel) mulVecInto(dst, x mat.Vector) {
	if k.csr != nil {
		k.csr.MulVecInto(dst, x)
		return
	}
	if !k.oracle && 2*k.bw+1 < k.dense.Rows {
		mat.MulVecBandInto(dst, k.dense, x, k.bw)
		return
	}
	k.dense.MulVecInto(dst, x)
}

// forwardMul stores a·M into dst (the forward Commit update X = A·M),
// where a is a forward operator with tracked bandwidth aBand (pass
// ≥ m−1 when unknown/full). dst must not alias a. The dense non-oracle
// path picks, in order: the banded kernel while the band beats dense
// flops, the skip-based naive loop while a is under ~50% dense, and the
// blocked kernel otherwise — the AVX2 micro-kernel on a·M where the CPU
// has it, else the register-tiled kernel on M's precomputed transpose.
// All paths are bit-identical.
func (k *stepKernel) forwardMul(dst, a *mat.Matrix, aBand int, kc *kernelCounters) {
	if k.csr != nil {
		mat.MulCSRInto(dst, a, k.csr)
		return
	}
	if k.oracle {
		mat.MulInto(dst, a, k.dense)
		return
	}
	m := a.Rows
	if bandedWins(m, aBand, k.bw) {
		mat.MulBandInto(dst, a, k.dense, min(aBand, m-1), k.bw)
		kc.banded.Add(1)
		return
	}
	if !halfDense(a) {
		mat.MulInto(dst, a, k.dense)
		return
	}
	kc.blocked.Add(1)
	if mat.SIMD() {
		mat.MulSIMDInto(dst, a, k.dense)
		return
	}
	if k.denseT == nil {
		k.materialiseTranspose()
	}
	mat.MulABtInto(dst, a, k.denseT)
}

// backwardMul stores Mᵀ·b into dst (the backward Commit update), where
// b is the backward accumulator with tracked bandwidth bBand. dst must
// not alias b. tScratch is caller scratch (≥ b's shape) the portable
// blocked path may overwrite with bᵀ: the register-tiled kernel wants
// the right operand transposed, and transposing b costs ~2% of its
// product. The AVX2 micro-kernel takes b as it is.
func (k *stepKernel) backwardMul(dst, b *mat.Matrix, bBand int, tScratch *mat.Matrix, kc *kernelCounters) {
	if k.csrT == nil && k.denseT == nil {
		// Lazily-compiled (call-private) kernel: first backward use.
		k.materialiseTranspose()
	}
	if k.csrT != nil {
		k.csrT.MulMatInto(dst, b)
		return
	}
	if k.oracle {
		mat.MulInto(dst, k.denseT, b)
		return
	}
	m := b.Rows
	if bandedWins(m, k.bw, bBand) {
		mat.MulBandInto(dst, k.denseT, b, k.bw, min(bBand, m-1))
		kc.banded.Add(1)
		return
	}
	if !k.tHalfDense {
		mat.MulInto(dst, k.denseT, b)
		return
	}
	kc.blocked.Add(1)
	if mat.SIMD() {
		mat.MulSIMDInto(dst, k.denseT, b)
		return
	}
	mat.TransposeInto(tScratch, b)
	mat.MulABtInto(dst, k.denseT, tScratch)
}

// KernelStats summarises a model's (or plan's) compiled step kernels and
// the adaptive dispatch decisions taken so far.
type KernelStats struct {
	// Sparse and Dense count compiled kernels by path.
	Sparse int `json:"sparse"`
	Dense  int `json:"dense"`
	// NNZ is the total nonzeros retained across sparse kernels.
	NNZ int64 `json:"nnz"`
	// Density is the mean per-kernel density; a dense-path kernel
	// counts as 1 regardless of its zero pattern.
	Density float64 `json:"density"`
	// Blocked and Banded count operator products executed through the
	// blocked (AVX2 or register-tiled) and banded kernels (the adaptive
	// dense dispatch; naive-loop products are not counted).
	Blocked int64 `json:"blocked"`
	Banded  int64 `json:"banded"`
}

// Add merges o into s (entries-weighted density) and returns the result.
func (s KernelStats) Add(o KernelStats) KernelStats {
	se := s.entries()
	oe := o.entries()
	s.Sparse += o.Sparse
	s.Dense += o.Dense
	s.NNZ += o.NNZ
	s.Blocked += o.Blocked
	s.Banded += o.Banded
	if se+oe > 0 {
		s.Density = (s.Density*se + o.Density*oe) / (se + oe)
	}
	return s
}

func (s KernelStats) entries() float64 {
	return float64(s.Sparse + s.Dense)
}
