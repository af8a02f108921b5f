package mat

import "priste/internal/par"

// Blocked dense multiplication.
//
// The Theorem IV.1 forward-operator updates are dense m×m products
// (X = A·M, and Mᵀ·B on the backward phase). Two kernels speed them up
// over the naive i-k-j loop in MulInto, which streams a store per output
// element per k step:
//
//   - MulSIMDInto (amd64 with AVX2) keeps the i-k-j order but holds a
//     4-row × 8-column tile of dst in YMM registers: per k it broadcasts
//     a[r][k] (VBROADCASTSD), loads b[k][j:j+8] (VMOVUPD), multiplies
//     (VMULPD) and adds (VADDPD), storing each output element once. A
//     4×4 tile covers n mod 8 ≥ 4; Go loops cover the last n mod 4
//     columns and hi−lo mod 4 rows. The kernel is chosen once at start-up
//     from CPUID (AVX2, OSXSAVE, and XGETBV showing the OS saves YMM
//     state); there is no setting. Measured on one core of a 2-vCPU
//     Xeon (AVX2, 5 runs): 61–71 µs at m = 100 and 4.9–7.7 ms at
//     m = 400, against 267–336 µs and 17.2–18.7 ms for MulABtInto and
//     0.60–0.69 ms and 31.6–32.6 ms for MulInto.
//   - MulABtInto is the portable path, used where AVX2 is absent: each
//     output element is a dot product against a precomputed transpose of
//     the right operand, with a 4×2 block of accumulators in registers —
//     8 independent multiply-add chains, one store per output element,
//     and operand rows that stay resident across the inner loop.
//
// Bit-identity with the naive kernel: every accumulator starts at +0 and
// sums its k terms in ascending order — exactly the order MulInto adds
// them — so each output element is produced by the identical sequence of
// floating-point operations. (MulInto skips a[i][k] == 0 terms; with
// finite operands those terms contribute an exact ±0, which leaves a
// running sum that started at +0 unchanged, so the skip is immaterial —
// the same argument that makes the CSR kernels bit-identical, see CSR.)
// The k chain is never split or reassociated, and neither kernel uses
// fused multiply-add: fusing would skip the rounding of each product and
// change the bits of every partial sum. SIMD lanes are distinct output
// columns, so vector width changes nothing per element, and AVX and the
// scalar SSE2 code Go emits round under the same MXCSR (no flush-to-zero),
// so subnormals and overflows to +Inf come out the same too.

// MulABtInto computes dst = a·btᵀ, i.e. dst[i][j] = Σ_k a[i][k]·bt[j][k]
// — the blocked form of MulInto(dst, a, b) for callers holding bᵀ. dst
// must not alias a or bt and must have shape a.Rows × bt.Rows. Row tiles
// are split across the shared pool above the same work cutoff as
// MulInto, with fixed tile boundaries and each output row produced by
// exactly one goroutine, so the result is bit-deterministic at any
// parallelism.
func MulABtInto(dst, a, bt *Matrix) {
	if a.Cols != bt.Cols {
		panic("mat: MulABt inner dims mismatch")
	}
	if dst.Rows != a.Rows || dst.Cols != bt.Rows {
		panic("mat: MulABt dst shape mismatch")
	}
	if sameBacking(dst.Data, a.Data) || sameBacking(dst.Data, bt.Data) {
		panic("mat: MulABtInto dst aliases an operand")
	}
	if !par.Default().Parallel(a.Rows, int64(a.Rows)*int64(a.Cols)*int64(bt.Rows), parallelFlops) {
		mulABtRows(dst, a, bt, 0, a.Rows)
		return
	}
	par.Default().For(a.Rows, func(lo, hi int) { mulABtRows(dst, a, bt, lo, hi) })
}

// mulABtRows computes rows [lo,hi) of dst = a·btᵀ with a 4-row × 2-column
// register-blocked micro-kernel.
func mulABtRows(dst, a, bt *Matrix, lo, hi int) {
	kk := a.Cols
	n := bt.Rows
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a.Data[(i+0)*kk : (i+0)*kk+kk]
		a1 := a.Data[(i+1)*kk : (i+1)*kk+kk]
		a2 := a.Data[(i+2)*kk : (i+2)*kk+kk]
		a3 := a.Data[(i+3)*kk : (i+3)*kk+kk]
		d0 := dst.Data[(i+0)*n : (i+0)*n+n]
		d1 := dst.Data[(i+1)*n : (i+1)*n+n]
		d2 := dst.Data[(i+2)*n : (i+2)*n+n]
		d3 := dst.Data[(i+3)*n : (i+3)*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := bt.Data[(j+0)*kk : (j+0)*kk+kk]
			b1 := bt.Data[(j+1)*kk : (j+1)*kk+kk]
			var c00, c01, c10, c11, c20, c21, c30, c31 float64
			for k, bv0 := range b0 {
				bv1 := b1[k]
				av := a0[k]
				c00 += av * bv0
				c01 += av * bv1
				av = a1[k]
				c10 += av * bv0
				c11 += av * bv1
				av = a2[k]
				c20 += av * bv0
				c21 += av * bv1
				av = a3[k]
				c30 += av * bv0
				c31 += av * bv1
			}
			d0[j], d0[j+1] = c00, c01
			d1[j], d1[j+1] = c10, c11
			d2[j], d2[j+1] = c20, c21
			d3[j], d3[j+1] = c30, c31
		}
		for ; j < n; j++ {
			b0 := bt.Data[j*kk : j*kk+kk]
			var c0, c1, c2, c3 float64
			for k, bv := range b0 {
				c0 += a0[k] * bv
				c1 += a1[k] * bv
				c2 += a2[k] * bv
				c3 += a3[k] * bv
			}
			d0[j], d1[j], d2[j], d3[j] = c0, c1, c2, c3
		}
	}
	for ; i < hi; i++ {
		arow := a.Data[i*kk : i*kk+kk]
		drow := dst.Data[i*n : i*n+n]
		for j := 0; j < n; j++ {
			b0 := bt.Data[j*kk : j*kk+kk]
			var c float64
			for k, bv := range b0 {
				c += arow[k] * bv
			}
			drow[j] = c
		}
	}
}

// SIMD reports whether MulSIMDInto runs the AVX2 micro-kernel on this
// machine. Without it, MulABtInto is the faster dense product.
func SIMD() bool { return useAVX2 }

// MulSIMDInto computes dst = a·b, bit-identical to MulInto, with the AVX2
// micro-kernel where SIMD reports it (MulInto otherwise). dst must not
// alias a or b and must have shape a.Rows × b.Cols. Above the same work
// cutoff as MulInto, tiles of 4-row strips are split across the shared
// pool, with fixed tile boundaries and each output row produced by
// exactly one goroutine, so the result is bit-deterministic at any
// parallelism.
func MulSIMDInto(dst, a, b *Matrix) {
	if !useAVX2 {
		MulInto(dst, a, b)
		return
	}
	checkMul(dst, a, b)
	// The assembly kernel reads and writes through raw pointers, so a
	// Matrix whose Data is shorter than its shape must panic here
	// instead of touching memory past the slice.
	if len(a.Data) < a.Rows*a.Cols || len(b.Data) < b.Rows*b.Cols || len(dst.Data) < dst.Rows*dst.Cols {
		panic("mat: MulSIMDInto operand data shorter than its shape")
	}
	strips := (a.Rows + 3) / 4
	if !par.Default().Parallel(strips, int64(a.Rows)*int64(a.Cols)*int64(b.Cols), parallelFlops) {
		mulSIMDRows(dst, a, b, 0, a.Rows)
		return
	}
	par.Default().For(strips, func(lo, hi int) { mulSIMDRows(dst, a, b, 4*lo, min(4*hi, a.Rows)) })
}

// mulSIMDRows computes rows [lo,hi) of dst = a·b: 4-row strips through
// the assembly kernel for the columns below n&^3 and a scalar dot per
// remaining column, then the naive loop for the last hi−lo mod 4 rows
// (and for every row when a has no columns).
func mulSIMDRows(dst, a, b *Matrix, lo, hi int) {
	kk, n := a.Cols, b.Cols
	n4 := n &^ 3
	i := lo
	for ; kk > 0 && i+4 <= hi; i += 4 {
		if n4 > 0 {
			mulStrip4AVX2(&dst.Data[i*n], &a.Data[i*kk], &b.Data[0], kk, n)
		}
		for r := i; r < i+4; r++ {
			arow := a.Data[r*kk : r*kk+kk]
			for j := n4; j < n; j++ {
				var c float64
				for k, av := range arow {
					c += av * b.Data[k*n+j]
				}
				dst.Data[r*n+j] = c
			}
		}
	}
	mulRows(dst, a, b, i, hi)
}

// TransposeInto stores srcᵀ into dst and returns dst. dst must not alias
// src and must have shape src.Cols × src.Rows. It exists for hot paths
// that transpose into reused scratch (the backward Commit update feeds
// the blocked kernel a transpose of the accumulator each step).
func TransposeInto(dst, src *Matrix) *Matrix {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic("mat: TransposeInto dst shape mismatch")
	}
	if sameBacking(dst.Data, src.Data) {
		panic("mat: TransposeInto dst aliases src")
	}
	for i := 0; i < src.Rows; i++ {
		row := src.Data[i*src.Cols : (i+1)*src.Cols]
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
	return dst
}
