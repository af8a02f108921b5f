package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// randomNonNeg returns a rows×cols matrix of non-negative entries with
// the given zero fraction (the engine's operators and transition matrices
// are non-negative; bit-identity of the kernels is claimed on that
// domain).
func randomNonNeg(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			continue
		}
		m.Data[i] = rng.Float64()
	}
	return m
}

// mulCase is one product shape and operand distribution of the dense
// kernels' bit-identity table.
type mulCase struct {
	m, k, n        int
	zero           float64 // fraction of zero entries
	aScale, bScale float64 // entries are uniform on [0, scale)
}

// mulCases covers every row remainder mod 4 and column remainder mod 8
// (the SIMD tiles are 4×8 then 4×4; MulABtInto's are 4×2), k = 0 and
// k = 1, zero fractions 0/0.5/0.95, and on the small shapes subnormal
// (~1e-310) products and ~1e300 entries, whose products overflow to +Inf;
// then the served m = 100 and, at 300, the parallel split.
func mulCases() []mulCase {
	var cases []mulCase
	add := func(m, k, n int, scales [][2]float64) {
		for _, zero := range []float64{0, 0.5, 0.95} {
			for _, s := range scales {
				cases = append(cases, mulCase{m, k, n, zero, s[0], s[1]})
			}
		}
	}
	extremes := [][2]float64{{1, 1}, {1e-310, 1}, {1, 1e-310}, {1e300, 1}, {1e300, 1e300}}
	for m := 1; m <= 8; m++ {
		for n := 1; n <= 16; n++ {
			for _, k := range []int{0, 1, 5} {
				add(m, k, n, extremes)
			}
		}
	}
	for _, sz := range [][3]int{{17, 13, 19}, {32, 32, 32}, {33, 31, 35}} {
		add(sz[0], sz[1], sz[2], extremes)
	}
	for _, sz := range [][3]int{{100, 100, 100}, {300, 300, 300}} {
		add(sz[0], sz[1], sz[2], [][2]float64{{1, 1}})
	}
	return cases
}

// checkMulCases runs mul over every mulCases entry and fails on the first
// element that differs in any bit from MulInto.
func checkMulCases(t *testing.T, name string, mul func(dst, a, b *Matrix)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, c := range mulCases() {
		a := randomNonNeg(rng, c.m, c.k, c.zero)
		b := randomNonNeg(rng, c.k, c.n, c.zero)
		a.Scale(c.aScale)
		b.Scale(c.bScale)
		want := NewMatrix(c.m, c.n)
		MulInto(want, a, b)
		got := NewMatrix(c.m, c.n)
		for i := range got.Data {
			got.Data[i] = math.NaN() // every element must be written
		}
		mul(got, a, b)
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("%s %+v: element %d differs: naive %v, got %v",
					name, c, i, want.Data[i], got.Data[i])
			}
		}
	}
}

func TestMulABtIntoMatchesNaive(t *testing.T) {
	checkMulCases(t, "MulABtInto", func(dst, a, b *Matrix) { MulABtInto(dst, a, b.Transpose()) })
}

// TestMulSIMDIntoMatchesNaive runs the same table through MulSIMDInto
// with the AVX2 kernel on (where the CPU has it) and off.
func TestMulSIMDIntoMatchesNaive(t *testing.T) {
	for _, on := range []bool{true, false} {
		restore := setAVX2(on)
		if on && !SIMD() {
			t.Log("no AVX2 on this CPU: only the portable path runs")
		}
		checkMulCases(t, fmt.Sprintf("MulSIMDInto avx2=%v", SIMD()), MulSIMDInto)
		restore()
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	src := randomNonNeg(rng, 7, 5, 0.2)
	dst := NewMatrix(5, 7)
	TransposeInto(dst, src)
	want := src.Transpose()
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

func TestMulSIMDIntoShortDataPanics(t *testing.T) {
	a, b, dst := NewMatrix(8, 8), NewMatrix(8, 8), NewMatrix(8, 8)
	b.Data = b.Data[:63]
	defer func() {
		if recover() == nil {
			t.Fatal("MulSIMDInto accepted an operand with 63 of its 64 entries")
		}
	}()
	MulSIMDInto(dst, a, b)
}

func BenchmarkMulNaive400(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := randomNonNeg(rng, 400, 400, 0)
	m := randomNonNeg(rng, 400, 400, 0)
	dst := NewMatrix(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, m)
	}
}

func BenchmarkMulBlocked400(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := randomNonNeg(rng, 400, 400, 0)
	m := randomNonNeg(rng, 400, 400, 0)
	mt := m.Transpose()
	dst := NewMatrix(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulABtInto(dst, a, mt)
	}
}

func BenchmarkMulSIMD400(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := randomNonNeg(rng, 400, 400, 0)
	m := randomNonNeg(rng, 400, 400, 0)
	dst := NewMatrix(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSIMDInto(dst, a, m)
	}
}
