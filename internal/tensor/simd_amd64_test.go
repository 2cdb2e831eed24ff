//go:build amd64

package tensor

import "testing"

// kernelModes runs fn once per float kernel set this machine can run:
// the AVX2+FMA assembly when the CPU has it, and the scalar fallback.
func kernelModes(t *testing.T, fn func(t *testing.T)) {
	saved := useSIMD
	defer func() { useSIMD = saved }()
	if saved {
		t.Run("avx2", fn)
	}
	useSIMD = false
	t.Run("generic", fn)
}

func TestGemm4x16AVXBitIdentical(t *testing.T) {
	if !useSIMD {
		t.Skip("CPU lacks AVX2+FMA")
	}
	checkBlockKernel(t, gemm4x16AVX, axpyAVX)
}
