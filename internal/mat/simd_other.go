//go:build !amd64

package mat

// useAVX2 is false off amd64: MulSIMDInto runs MulInto there.
var useAVX2 = false

func mulStrip4AVX2(dst, a, b *float64, kk, n int) {
	panic("mat: AVX2 kernel called on a non-amd64 build")
}
