// Symmetric int8 quantization for the reduced-precision inference path.
//
// The scheme (DESIGN.md §8):
//
//   - Activations are quantized per tensor with one scale
//     sx = maxAbs/127 and no zero point, so a float zero quantizes to
//     int8 zero and the zero padding written by im2col needs no
//     correction term.
//   - Weights are quantized per output channel: column j of the float
//     [K, Out] training layout gets its own scale, and the quantized
//     matrix is stored transposed as [Out][K] rows so the int8 GEMM
//     reads both operands contiguously along k.
//   - Products accumulate in int32, which is exact for any summation
//     order (k is capped at MaxQ8K), so the kernel is bit-exactly
//     reproducible run to run and the AVX2 path must agree with the
//     pure-Go oracle exactly — not to a tolerance, unlike the float
//     kernels.
//
// Rounding is half away from zero, clamped to [-127, 127]; -128 is
// never produced, keeping the range symmetric.

package tensor

import "fmt"

// MaxQ8K is the largest inner dimension the int8 GEMM accepts: every
// partial product has magnitude at most 127², so int32 accumulation over
// k terms is exact while k ≤ (2³¹−1)/127².
const MaxQ8K = (1<<31 - 1) / (127 * 127)

// QuantizeScale returns the symmetric per-tensor scale for xs:
// maxAbs/127, or 1 when every value is zero (any scale maps 0 to 0).
// NaN values are ignored; they quantize to 0.
func QuantizeScale(xs []float32) float32 {
	m := maxAbs(xs)
	if m == 0 {
		return 1
	}
	return m / 127
}

// quantizeVal rounds v/scale (passed as v·inv) half away from zero and
// clamps to [-127, 127]. NaN maps to 0.
func quantizeVal(v, inv float32) int8 {
	r := v * inv
	if r >= 126.5 {
		return 127
	}
	if r <= -126.5 {
		return -127
	}
	if r != r { // NaN
		return 0
	}
	if r >= 0 {
		return int8(r + 0.5)
	}
	return int8(r - 0.5)
}

// QuantizeInto quantizes src into dst (len(dst) >= len(src)) with the
// given scale (AVX2-accelerated when available; the vector and scalar
// paths are bit-identical).
func QuantizeInto(dst []int8, src []float32, scale float32) {
	quantizeSpan(dst[:len(src)], src, 1/scale)
}

// Quantize quantizes src into dst with a fresh per-tensor scale and
// returns that scale.
func Quantize(dst []int8, src []float32) float32 {
	scale := QuantizeScale(src)
	QuantizeInto(dst, src, scale)
	return scale
}

// Dequantize returns q·scale.
func Dequantize(q int8, scale float32) float32 { return float32(q) * scale }

// QWeights is a weight matrix quantized per output channel, stored
// transposed relative to the float [K, Out] training layout: row j of
// Data holds output channel j's K weights, so MatMulQ8Into reads both
// GEMM operands contiguously along k.
type QWeights struct {
	K, Out int
	Data   []int8    // [Out][K]
	Scales []float32 // per output channel: maxAbs(column j)/127
}

// QuantizeWeights quantizes w (shape [K, Out], the layout the float
// kernels multiply by) into per-output-channel int8 rows.
func QuantizeWeights(w *T) *QWeights {
	if len(w.Shape) != 2 {
		panic(fmt.Sprintf("tensor: quantize weights of shape %v", w.Shape))
	}
	k, out := w.Shape[0], w.Shape[1]
	if k > MaxQ8K {
		panic(fmt.Sprintf("tensor: quantized inner dim %d exceeds %d", k, MaxQ8K))
	}
	q := &QWeights{K: k, Out: out, Data: make([]int8, k*out), Scales: make([]float32, out)}
	for j := 0; j < out; j++ {
		var maxAbs float32
		for p := 0; p < k; p++ {
			v := w.Data[p*out+j]
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		scale := float32(1)
		if maxAbs > 0 {
			scale = maxAbs / 127
		}
		q.Scales[j] = scale
		inv := 1 / scale
		row := q.Data[j*k : (j+1)*k]
		for p := 0; p < k; p++ {
			row[p] = quantizeVal(w.Data[p*out+j], inv)
		}
	}
	return q
}

// MatMulQ8Into computes the int8 GEMM out = dequant(a · Wᵀ) for a of
// shape [m, q.K] (int8, row-major, per-tensor scale sa) against the
// quantized weights q: out[i·Out+j] = sa · q.Scales[j] · Σₚ a[i,p]·W[j,p]
// with the sum accumulated exactly in int32. out must hold m·q.Out
// float32 values; prior contents are overwritten. Four weight rows are
// processed per inner call so the activation row loads once per group
// (dotQ8x4, AVX2-accelerated when available).
func MatMulQ8Into(a []int8, sa float32, q *QWeights, m int, out []float32) {
	k, n := q.K, q.Out
	if len(a) < m*k || len(out) < m*n {
		panic(fmt.Sprintf("tensor: matmulQ8 a[%d] out[%d] for m=%d k=%d n=%d", len(a), len(out), m, k, n))
	}
	parallelWork(m, k*n, func(lo, hi int) {
		var acc [4]int32
		for i := lo; i < hi; i++ {
			ar := a[i*k : (i+1)*k]
			or := out[i*n : (i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				dotQ8x4(ar, q.Data[j*k:(j+4)*k], &acc)
				or[j] = sa * q.Scales[j] * float32(acc[0])
				or[j+1] = sa * q.Scales[j+1] * float32(acc[1])
				or[j+2] = sa * q.Scales[j+2] * float32(acc[2])
				or[j+3] = sa * q.Scales[j+3] * float32(acc[3])
			}
			for ; j < n; j++ {
				or[j] = sa * q.Scales[j] * float32(dotQ8Generic(ar, q.Data[j*k:(j+1)*k]))
			}
		}
	})
}

// MatMulQ8Naive is the unblocked serial reference for MatMulQ8Into.
// Because int32 accumulation is exact, the two must agree bit for bit —
// the property tests pin exact equality, not a tolerance.
func MatMulQ8Naive(a []int8, sa float32, q *QWeights, m int) []float32 {
	k, n := q.K, q.Out
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			wr := q.Data[j*k : (j+1)*k]
			var s int32
			for p, v := range ar {
				s += int32(v) * int32(wr[p])
			}
			out[i*n+j] = sa * q.Scales[j] * float32(s)
		}
	}
	return out
}

// Im2ColQ8Into unfolds an int8-quantized NCHW input (n batch items,
// flattened into x) into the [n·OutH·OutW, InC·K·K] column matrix in
// dst, with Im2ColInto's loop. Because the quantization is symmetric,
// zero padding quantizes to 0 and gathering quantized bytes here equals
// quantizing the float im2col matrix — while touching 4× less memory.
func Im2ColQ8Into(x []int8, n int, g ConvGeom, dst []int8) {
	rows, width := n*g.OutH*g.OutW, g.InC*g.Kernel*g.Kernel
	if len(x) < n*g.InC*g.InH*g.InW || len(dst) < rows*width {
		panic(fmt.Sprintf("tensor: im2colQ8 x[%d] dst[%d] for %+v n=%d", len(x), len(dst), g, n))
	}
	im2col(x, n, g, dst)
}
