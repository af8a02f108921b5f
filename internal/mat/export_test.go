package mat

// setAVX2 switches MulSIMDInto's AVX2 kernel on (only where the CPU has
// it) or off, and returns a func that restores the start-up choice.
func setAVX2(on bool) (restore func()) {
	detected := useAVX2
	useAVX2 = on && detected
	return func() { useAVX2 = detected }
}
