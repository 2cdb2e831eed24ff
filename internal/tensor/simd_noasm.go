//go:build !amd64

package tensor

// SIMDEnabled reports whether the vector kernels are active; on
// non-amd64 platforms the scalar fallbacks are always used.
func SIMDEnabled() bool { return false }

func axpy(alpha float32, x, y []float32) { axpyGeneric(alpha, x, y) }

func dot(x, y []float32) float32 { return dotGeneric(x, y) }

func gemm4x16(a []float32, rs, ks int, b []float32, ldb int, c []float32, ldc, k int) {
	gemm4x16Generic(a, rs, ks, b, ldb, c, ldc, k)
}

func dotQ8x4(x, w []int8, out *[4]int32) { dotQ8x4Generic(x, w, out) }

func maxAbs(x []float32) float32 { return maxAbsGeneric(x) }

func quantizeSpan(dst []int8, src []float32, inv float32) { quantizeGeneric(dst, src, inv) }
