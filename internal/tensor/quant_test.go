package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randI8 fills a slice with values spanning the full symmetric range.
func randI8(r *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(r.Intn(255) - 127)
	}
	return s
}

// TestDotQ8x4MatchesGeneric pins the dispatched 4-row int8 dot kernel
// (AVX2 when the host supports it) to the scalar reference EXACTLY:
// int32 accumulation has no rounding, so unlike the float kernels there
// is no tolerance.
func TestDotQ8x4MatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, k := range simdLens {
		x := randI8(r, k)
		w := randI8(r, 4*k)
		var want, got [4]int32
		dotQ8x4Generic(x, w, &want)
		dotQ8x4(x, w, &got)
		if got != want {
			t.Fatalf("dotQ8x4 k=%d (simd=%v): %v, want %v", k, SIMDEnabled(), got, want)
		}
	}
}

// TestDotQ8x4Saturating drives the kernel with worst-case ±127 inputs at
// a length where the int16 pair products hit their extremes, proving the
// widening path does not overflow.
func TestDotQ8x4Saturating(t *testing.T) {
	const k = 1000
	x := make([]int8, k)
	w := make([]int8, 4*k)
	for i := range x {
		x[i] = 127
	}
	for i := range w {
		w[i] = -127
	}
	var got [4]int32
	dotQ8x4(x, w, &got)
	want := int32(-127 * 127 * k)
	for r, v := range got {
		if v != want {
			t.Fatalf("row %d: %d, want %d", r, v, want)
		}
	}
}

func TestQuantizeKnownValues(t *testing.T) {
	src := []float32{0, 0.4, 0.5, -0.5, -0.4, 126.4, 126.5, 200, -200, float32(math.NaN())}
	dst := make([]int8, len(src))
	QuantizeInto(dst, src, 1)
	want := []int8{0, 0, 1, -1, 0, 126, 127, 127, -127, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("quantize %g @ scale 1: %d, want %d", src[i], dst[i], want[i])
		}
	}
}

func TestQuantizeScale(t *testing.T) {
	if s := QuantizeScale([]float32{0, 0, 0}); s != 1 {
		t.Fatalf("all-zero scale %g, want 1", s)
	}
	if s := QuantizeScale([]float32{3, -254, 10}); s != 2 {
		t.Fatalf("scale %g, want 2", s)
	}
}

// TestMatMulQ8MatchesNaive pins the blocked, 4-row-grouped, possibly
// SIMD kernel to the serial naive oracle bit for bit across shapes that
// straddle the group width (n % 4) and the 16-wide asm body (k % 16).
func TestMatMulQ8MatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 7, 5}, {4, 16, 4}, {5, 17, 3},
		{16, 54, 16}, {9, 100, 7}, {64, 144, 32}, {33, 512, 6},
	}
	for _, s := range shapes {
		a := randI8(r, s.m*s.k)
		w := New(s.k, s.n)
		w.Randn(r, 0.5)
		q := QuantizeWeights(w)
		sa := float32(0.031)
		want := MatMulQ8Naive(a, sa, q, s.m)
		got := make([]float32, s.m*s.n)
		MatMulQ8Into(a, sa, q, s.m, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=%d k=%d n=%d: out[%d] = %g, want %g (exact)", s.m, s.k, s.n, i, got[i], want[i])
			}
		}
	}
}

// TestMatMulQ8Deterministic runs the same multiply twice (goroutine
// scheduling and all) and demands identical bits: int32 accumulation is
// order-independent, which is the reproducibility claim of the int8
// path.
func TestMatMulQ8Deterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const m, k, n = 37, 130, 11
	a := randI8(r, m*k)
	w := New(k, n)
	w.Randn(r, 1)
	q := QuantizeWeights(w)
	run := func() []float32 {
		out := make([]float32, m*n)
		MatMulQ8Into(a, 0.017, q, m, out)
		return out
	}
	first := run()
	for trial := 0; trial < 4; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("trial %d: out[%d] changed %g -> %g", trial, i, first[i], again[i])
			}
		}
	}
}

// TestQuantizeWeightsPerChannel checks the per-output-channel scales and
// the transposed [Out][K] layout: dequantizing row j must land within
// half a quantization step of column j of the float matrix.
func TestQuantizeWeightsPerChannel(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const k, out = 29, 6
	w := New(k, out)
	w.Randn(r, 1)
	// Give channels wildly different magnitudes so a per-tensor scale
	// would visibly fail the half-step bound on the small channels.
	for j := 0; j < out; j++ {
		mag := float32(math.Pow(10, float64(j)-3))
		for p := 0; p < k; p++ {
			w.Data[p*out+j] *= mag
		}
	}
	q := QuantizeWeights(w)
	if q.K != k || q.Out != out {
		t.Fatalf("dims %dx%d, want %dx%d", q.K, q.Out, k, out)
	}
	for j := 0; j < out; j++ {
		scale := q.Scales[j]
		for p := 0; p < k; p++ {
			got := Dequantize(q.Data[j*k+p], scale)
			wantV := w.Data[p*out+j]
			if diff := math.Abs(float64(got - wantV)); diff > float64(scale)/2+1e-12 {
				t.Fatalf("channel %d weight %d: dequant %g vs %g exceeds half-step %g", j, p, got, wantV, scale/2)
			}
		}
	}
}

// TestIm2ColQ8MatchesFloatIm2Col proves the cheap ordering — quantize
// the input once, then gather bytes — equals quantizing the 9×-larger
// float im2col matrix: symmetric quantization maps the zero padding to
// int8 zero.
func TestIm2ColQ8MatchesFloatIm2Col(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	g, err := NewConvGeom(3, 8, 3, 2, 1, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	x := New(n, g.InC, g.InH, g.InW)
	x.Randn(r, 1)

	scale := QuantizeScale(x.Data)
	xq := make([]int8, len(x.Data))
	QuantizeInto(xq, x.Data, scale)
	rows, width := n*g.OutH*g.OutW, g.InC*g.Kernel*g.Kernel
	got := make([]int8, rows*width)
	Im2ColQ8Into(xq, n, g, got)

	colsF := Im2Col(x, g)
	want := make([]int8, rows*width)
	QuantizeInto(want, colsF.Data, scale)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("im2colQ8[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestQuantizeSpanBitExact pins the AVX2 quantize kernel to the scalar
// quantizeVal element by element, across every 32-wide body/tail split
// and the special values the scalar branches handle: NaN, ±Inf, values
// past the clamp, and exact half-step boundaries.
func TestQuantizeSpanBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 126.5, -126.5, 127, -127, 200, -200,
		0.5, -0.5, 1.5, -1.5, 126.4999, -126.4999,
	}
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 100, 256, 1000} {
		for _, scale := range []float32{1, 0.037, 12.5} {
			src := make([]float32, n)
			for i := range src {
				if r.Intn(4) == 0 {
					src[i] = specials[r.Intn(len(specials))] * scale
				} else {
					src[i] = float32(r.NormFloat64()) * 100 * scale
				}
			}
			got := make([]int8, n)
			QuantizeInto(got, src, scale)
			inv := 1 / scale
			for i, v := range src {
				if want := quantizeVal(v, inv); got[i] != want {
					t.Fatalf("n=%d scale=%g: [%d] quantize(%g) = %d, want %d", n, scale, i, v, got[i], want)
				}
			}
		}
	}
}

// TestMaxAbsMatchesGeneric pins the AVX2 max-abs scan to the scalar
// fallback, including NaN lanes (ignored by both) in body and tail.
func TestMaxAbsMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 100, 1000} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(r.NormFloat64()) * 50
		}
		if n > 2 {
			x[0] = float32(math.NaN())
			x[n-1] = float32(math.NaN()) // lands in the scalar tail when n%8 != 0
		}
		want := maxAbsGeneric(x)
		got := maxAbs(x)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("maxAbs n=%d: %g, want %g", n, got, want)
		}
	}
	// All-NaN input: every comparison loses, the zero identity survives.
	allNaN := []float32{float32(math.NaN()), float32(math.NaN()), float32(math.NaN()),
		float32(math.NaN()), float32(math.NaN()), float32(math.NaN()),
		float32(math.NaN()), float32(math.NaN())}
	if got := maxAbs(allNaN); got != 0 {
		t.Fatalf("maxAbs(all NaN) = %g, want 0", got)
	}
}
