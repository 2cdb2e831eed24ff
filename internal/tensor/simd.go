package tensor

// Portable scalar reference implementations of the SIMD primitives
// behind the blocked matmul kernels. On amd64 with AVX2+FMA the
// assembly versions in simd_amd64.s are used instead; these generic
// loops are the fallback and the oracle the asm is tested against.

// axpyGeneric computes y[i] += alpha * x[i] over len(x) elements.
func axpyGeneric(alpha float32, x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// gemm4x16Generic is the scalar reference for gemm4x16AVX: each of the
// 4×16 C elements is accumulated from zero over p ascending with the
// same skip-zero `+= a * b` step axpyGeneric takes, so on one machine it
// agrees bit for bit with the axpy-per-row loop it replaces.
func gemm4x16Generic(a []float32, rs, ks int, b []float32, ldb int, c []float32, ldc, k int) {
	var acc [4][16]float32
	for p := 0; p < k; p++ {
		br := b[p*ldb : p*ldb+16]
		for r := range acc {
			if av := a[r*rs+p*ks]; av != 0 {
				for j, bv := range br {
					acc[r][j] += av * bv
				}
			}
		}
	}
	for r := range acc {
		copy(c[r*ldc:r*ldc+16], acc[r][:])
	}
}

// dotGeneric returns the inner product of x and y over len(x) elements.
func dotGeneric(x, y []float32) float32 {
	y = y[:len(x)]
	var s float32
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// dotQ8Generic returns the int8 inner product over len(x) elements,
// accumulated exactly in int32. Caller guarantees len(y) >= len(x) and
// len(x) <= MaxQ8K.
func dotQ8Generic(x, y []int8) int32 {
	y = y[:len(x)]
	var s int32
	for i, v := range x {
		s += int32(v) * int32(y[i])
	}
	return s
}

// dotQ8x4Generic computes four int8 dot products of x against the four
// consecutive length-len(x) rows packed in w (row stride = len(x)),
// writing the exact int32 sums into out. Caller guarantees
// len(w) >= 4*len(x). This is the scalar reference for dotQ8x4AVX;
// because int32 accumulation is exact the two agree bit for bit.
func dotQ8x4Generic(x, w []int8, out *[4]int32) {
	k := len(x)
	w0, w1, w2, w3 := w[:k], w[k:2*k], w[2*k:3*k], w[3*k:4*k]
	var s0, s1, s2, s3 int32
	for i, v := range x {
		xv := int32(v)
		s0 += xv * int32(w0[i])
		s1 += xv * int32(w1[i])
		s2 += xv * int32(w2[i])
		s3 += xv * int32(w3[i])
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}

// maxAbsGeneric returns max |x[i]|. NaN values lose every comparison, so
// they are ignored — the same semantics the NaN-aware MAXPS operand
// order gives the assembly version.
func maxAbsGeneric(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// quantizeGeneric quantizes src into dst (len(dst) >= len(src)) with
// the reciprocal scale inv. Scalar reference for quantize32AVX; the two
// agree bit for bit.
func quantizeGeneric(dst []int8, src []float32, inv float32) {
	for i, v := range src {
		dst[i] = quantizeVal(v, inv)
	}
}
