package mat

// useAVX2 selects the AVX2 micro-kernel in MulSIMDInto. It is set once
// at start-up, where this CPU and OS run the kernel: CPUID leaf 7
// advertises AVX2, leaf 1 advertises OSXSAVE, and XCR0 shows the OS saves
// the XMM and YMM registers across context switches. Only this package's
// tests switch it afterwards.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	if xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() (eax uint32)

// mulStrip4AVX2 computes dst[r·n+j] = Σ_{k<kk} a[r·kk+k]·b[k·n+j] for
// the four rows r < 4 and the columns j < n&^3: 4×8 tiles of YMM
// accumulators, then one 4×4 tile when n mod 8 ≥ 4. Each element starts
// at +0 and adds its k terms in ascending order, each product rounded by
// VMULPD before VADDPD adds it — no FMA. kk must be positive; a, b and
// dst must hold 4·kk, kk·n and 4·n elements.
//
//go:noescape
func mulStrip4AVX2(dst, a, b *float64, kk, n int)
