package mat

import "priste/internal/par"

// Banded multiplication.
//
// Under a grid ordering the mobility kernels are spatially local, so a
// transition matrix M has bandwidth bw ≪ m (all nonzeros within |i−j| ≤
// bw), and the Theorem IV.1 forward operators — products of masked
// copies of M — stay banded for short horizons: each committed step
// widens the operator band by M's band. The kernels here restrict both
// the k loop (to the left operand's band) and the j loop (to the right
// operand's band), turning an O(m³) product into O(m·(2p+1)·(2bw+1)).
//
// Bit-identity with the naive kernel: the loop order is the same i-k-j
// scatter as MulInto with the k chain ascending, and every skipped term
// has a zero factor — either a[i][k] outside a's band (the same skip
// MulInto performs) or b[k][j] outside b's band, which contributes an
// exact +0 on the engine's non-negative data. The band arguments are a
// caller contract: entries outside the declared bands must be exactly
// zero, or the result diverges from the dense product.

// Bandwidth returns the bandwidth of a: the largest |i−j| over nonzero
// entries (0 for a diagonal or zero matrix). For a non-square matrix the
// same |i−j| measure applies.
func Bandwidth(a *Matrix) int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		// Only columns outside [i−bw, i+bw] can grow the band; scan
		// outward-first so dense rows terminate in O(1) amortised.
		for j := 0; j < i-bw; j++ {
			if row[j] != 0 {
				bw = i - j
				break
			}
		}
		for j := a.Cols - 1; j > i+bw; j-- {
			if row[j] != 0 {
				bw = j - i
				break
			}
		}
	}
	return bw
}

// MulBandInto computes dst = a·b where a has bandwidth aBand and b has
// bandwidth bBand (entries outside those bands must be exactly zero).
// dst must not alias an operand; it is fully zeroed first, so entries
// outside the product band come out as exact zeros — the same bits the
// dense kernels produce for them. Band strips (row tiles) split across
// the shared pool above the work cutoff; each dst row has a single
// writer, so the result is bit-deterministic at any parallelism.
func MulBandInto(dst, a, b *Matrix, aBand, bBand int) {
	if a.Cols != b.Rows {
		panic("mat: MulBand inner dims mismatch")
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulBand dst shape mismatch")
	}
	if sameBacking(dst.Data, a.Data) || sameBacking(dst.Data, b.Data) {
		panic("mat: MulBandInto dst aliases an operand")
	}
	dst.Zero()
	flops := int64(a.Rows) * int64(2*aBand+1) * int64(2*bBand+1)
	if !par.Default().Parallel(a.Rows, flops, parallelFlops) {
		mulBandRows(dst, a, b, aBand, bBand, 0, a.Rows)
		return
	}
	par.Default().For(a.Rows, func(lo, hi int) { mulBandRows(dst, a, b, aBand, bBand, lo, hi) })
}

func mulBandRows(dst, a, b *Matrix, aBand, bBand, lo, hi int) {
	kk := a.Cols
	n := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*kk : (i+1)*kk]
		drow := dst.Data[i*n : (i+1)*n]
		k0, k1 := i-aBand, i+aBand
		if k0 < 0 {
			k0 = 0
		}
		if k1 > kk-1 {
			k1 = kk - 1
		}
		for k := k0; k <= k1; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			j0, j1 := k-bBand, k+bBand
			if j0 < 0 {
				j0 = 0
			}
			if j1 > n-1 {
				j1 = n - 1
			}
			brow := b.Data[k*n+j0 : k*n+j1+1]
			dseg := drow[j0 : j1+1]
			for jj, bv := range brow {
				dseg[jj] += aik * bv
			}
		}
	}
}

// NNZUpTo counts the nonzero entries of a, stopping once the count
// reaches limit: it returns min(nonzeros, limit). The adaptive dense
// dispatch uses it to decide between the skip-based naive kernel (wins
// below ~50% density) and the blocked kernel, so a dense operator is
// scanned only until half its entries are counted.
func (a *Matrix) NNZUpTo(limit int) int {
	n := 0
	for i := 0; i < a.Rows && n < limit; i++ {
		for _, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if v != 0 {
				n++
			}
		}
	}
	return min(n, limit)
}

// parallelVecFlops is the multiply-add count above which the banded
// matvec splits its band strips across the pool: a matvec is memory-
// bound, so the cutoff sits well below the matrix-product cutoffs.
const parallelVecFlops = 1 << 18

// MulVecBandInto computes dst = a·x for a with bandwidth band: each row
// dot is restricted to the band columns. Bit-identical to
// Matrix.MulVecInto on a matrix that respects the band (skipped terms
// are exact +0 on non-negative x) — each dst element is one ascending-k
// dot with a single writer, so parallel dispatch preserves bits too.
// dst must not alias x.
func MulVecBandInto(dst Vector, a *Matrix, x Vector, band int) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic("mat: MulVecBand shape mismatch")
	}
	if !par.Default().Parallel(a.Rows, int64(a.Rows)*int64(2*band+1), parallelVecFlops) {
		mulVecBandRows(dst, a, x, band, 0, a.Rows)
		return
	}
	par.Default().For(a.Rows, func(lo, hi int) { mulVecBandRows(dst, a, x, band, lo, hi) })
}

// mulVecBandRows computes dst[lo:hi] of the band-restricted matvec.
func mulVecBandRows(dst Vector, a *Matrix, x Vector, band, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		k0, k1 := i-band, i+band
		if k0 < 0 {
			k0 = 0
		}
		if k1 > a.Cols-1 {
			k1 = a.Cols - 1
		}
		var s float64
		seg := row[k0 : k1+1]
		xs := x[k0 : k1+1]
		for k, av := range seg {
			s += av * xs[k]
		}
		dst[i] = s
	}
}
