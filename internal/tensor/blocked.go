// Blocked matrix multiplication kernels built on the SIMD primitives in
// simd_amd64.s (AVX2 FMA, with a scalar fallback on other CPUs).
//
// The decomposition:
//
//   - C is cut into blocks of 4 rows (mrTile) by 16 columns. The
//     register kernel gemm4x16 keeps a whole block in eight ymm
//     accumulators for the entire k loop: each k step loads one 16-wide
//     B row and broadcasts the block's four A values against it, so C
//     touches memory once per block instead of once per k step.
//   - A is addressed by a row stride and a k stride, so the same kernel
//     serves A·B (MatMul, MatMulInto) and Aᵀ·B (MatMulTA).
//   - Ragged rows (m mod 4) and columns (n mod 16) take the axpy path:
//     one 8-wide FMA over the C row segment per nonzero A element.
//   - Row blocks are distributed across GOMAXPROCS goroutines via
//     parallelWork.
//   - MatMulTB is dot-product shaped (both operands contiguous along
//     k), so it uses the dot primitive directly with no packing.
//
// MatMul, MatMulInto and MatMulTA are bit-identical on both paths: each
// C element starts at zero and takes one single-rounding FMA (the scalar
// fallback: axpyGeneric's `+= a * b`) per k, in ascending k order, and
// lanes never mix. The register kernel does not skip zero A elements;
// c + 0·b == c for finite b, so that changes no bit unless c is −0.
// blocked_test.go pins this with Float32bits equality against the
// axpy-per-row loop. MatMulTB's 8-lane dot reassociates the sum, so it
// agrees with MatMulTBNaive to float32 rounding (1e-5 relative).

package tensor

import "fmt"

// mrTile is the number of C rows computed per block: four rows of 16
// columns fill eight of the sixteen ymm registers, leaving room for
// the B row and the four broadcasts.
const mrTile = 4

// gemm computes C = A·B into cD [m,n], overwriting it, for B [k,n]
// row-major and A element (i,p) at aD[i*rs+p*ks].
func gemm(aD []float32, rs, ks int, bD, cD []float32, m, k, n int) {
	blocks := (m + mrTile - 1) / mrTile
	n16 := n &^ 15
	parallelWork(blocks, mrTile*k*n, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			i := blk * mrTile
			rows, j0 := min(m-i, mrTile), 0
			if rows == mrTile {
				for ; j0 < n16; j0 += 16 {
					gemm4x16(aD[i*rs:], rs, ks, bD[j0:], n, cD[i*n+j0:], n, k)
				}
				if j0 == n {
					continue
				}
			}
			for r := 0; r < rows; r++ {
				clear(cD[(i+r)*n+j0 : (i+r+1)*n])
			}
			for p := 0; p < k; p++ {
				br := bD[p*n+j0 : (p+1)*n]
				for r := 0; r < rows; r++ {
					if av := aD[(i+r)*rs+p*ks]; av != 0 {
						axpy(av, br, cD[(i+r)*n+j0:(i+r+1)*n])
					}
				}
			}
		}
	})
}

// MatMul computes C = A·B for A of shape [m,k] and B of shape [k,n]
// using the blocked kernel. MatMulNaive is the reference oracle.
func MatMul(a, b *T) *T {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul %v × %v", a.Shape, b.Shape))
	}
	c := New(a.Shape[0], b.Shape[1])
	gemm(a.Data, a.Shape[1], 1, b.Data, c.Data, a.Shape[0], a.Shape[1], b.Shape[1])
	return c
}

// MatMulInto computes C = A·B into out, which must already have shape
// [m,n]. Prior contents of out are overwritten, so pooled buffers need
// no zeroing.
func MatMulInto(a, b, out *T) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul %v × %v", a.Shape, b.Shape))
	}
	if len(out.Shape) != 2 || out.Shape[0] != a.Shape[0] || out.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmul into %v, want [%d %d]", out.Shape, a.Shape[0], b.Shape[1]))
	}
	gemm(a.Data, a.Shape[1], 1, b.Data, out.Data, a.Shape[0], a.Shape[1], b.Shape[1])
}

// MatMulTA computes C = Aᵀ·B for A [k,m] and B [k,n] using the blocked
// kernel. C row i reads the strided column A[:,i]: row stride 1, k
// stride m.
func MatMulTA(a, b *T) *T {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulTA %v × %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	gemm(a.Data, 1, m, b.Data, c.Data, m, k, n)
	return c
}

// MatMulTB computes C = A·Bᵀ for A [m,k] and B [n,k] using the blocked
// kernel. Both operands are contiguous along k, so each C element is a
// single SIMD dot product; the row block keeps the A row hot across the
// sweep over B rows.
func MatMulTB(a, b *T) *T {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulTB %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	aD, bD, cD := a.Data, b.Data, c.Data
	parallelWork(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := aD[i*k : (i+1)*k]
			crow := cD[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] = dot(ar, bD[j*k:(j+1)*k])
			}
		}
	})
	return c
}
