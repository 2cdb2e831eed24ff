package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// close32 reports whether got and want agree to the mixed tolerance the
// ISSUE acceptance uses: |got-want| <= tol * (1 + |want|).
func close32(got, want float32, tol float64) bool {
	return math.Abs(float64(got-want)) <= tol*(1+math.Abs(float64(want)))
}

func randT(r *rand.Rand, shape ...int) *T {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

func compareT(t *testing.T, label string, got, want *T, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if !close32(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: [%d] = %g, want %g", label, i, got.Data[i], want.Data[i])
		}
	}
}

// matMulShapes covers sizes off every blocking boundary: unit dims,
// non-multiples of the 4×4 tile, exact tile multiples, and skinny
// operands in each direction.
var matMulShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 3},
	{7, 1, 19}, {8, 8, 8}, {13, 17, 11}, {16, 33, 4}, {17, 31, 13},
	{33, 65, 29}, {64, 64, 64}, {2, 128, 3}, {65, 3, 66},
}

func TestMatMulBlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		a := randT(r, m, k)
		b := randT(r, k, n)
		compareT(t, fmt.Sprintf("matmul %v", s), MatMul(a, b), MatMulNaive(a, b), 1e-5)
	}
}

func TestMatMulTABlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		a := randT(r, k, m)
		b := randT(r, k, n)
		compareT(t, fmt.Sprintf("matmulTA %v", s), MatMulTA(a, b), MatMulTANaive(a, b), 1e-5)
	}
}

func TestMatMulTBBlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		a := randT(r, m, k)
		b := randT(r, n, k)
		compareT(t, fmt.Sprintf("matmulTB %v", s), MatMulTB(a, b), MatMulTBNaive(a, b), 1e-5)
	}
}

func TestMatMulIntoOverwritesDirtyBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := randT(r, 9, 15)
	b := randT(r, 15, 7)
	out := New(9, 7)
	for i := range out.Data {
		out.Data[i] = 1e9 // poison: kernel must overwrite, not accumulate
	}
	MatMulInto(a, b, out)
	compareT(t, "matmul into", out, MatMulNaive(a, b), 1e-5)
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched shapes")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

// axpyLoop is the axpy-per-row GEMM, the bitwise oracle for the
// register kernel: each C row is cleared, then takes one axpyFn per
// nonzero A element in ascending k order. A element
// (i,p) is aD[i*rs+p*ks]; B and C are row-major with leading dims ldb
// and ldc.
func axpyLoop(axpyFn func(float32, []float32, []float32), aD []float32, rs, ks int, bD []float32, ldb int, cD []float32, ldc, m, k, n int) {
	for i := 0; i < m; i++ {
		c := cD[i*ldc : i*ldc+n]
		clear(c)
		for p := 0; p < k; p++ {
			if av := aD[i*rs+p*ks]; av != 0 {
				axpyFn(av, bD[p*ldb:p*ldb+n], c)
			}
		}
	}
}

// randZeros is randT's data with about a quarter of the entries zero
// (both signs), the way im2col padding and ReLU-like layers feed zeros
// into a GEMM's A operand.
func randZeros(r *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch r.Intn(8) {
		case 0:
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		default:
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

// sameBits fails unless got and want agree in every bit.
func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %g (%#08x), want %g (%#08x)", label, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// bitShapes are the property sweep's [m, k, n]: every m, n in 1..70
// with a small random k, plus the RICC encoder's three GEMMs at a
// 58-tile batch and their k against n = 48.
func bitShapes(r *rand.Rand) [][3]int {
	var shapes [][3]int
	for m := 1; m <= 70; m++ {
		for n := 1; n <= 70; n++ {
			shapes = append(shapes, [3]int{m, 1 + r.Intn(20), n})
		}
	}
	for _, n := range []int{16, 32, 48} {
		shapes = append(shapes, [3]int{58 * 64, 54, n}, [3]int{58 * 16, 144, n}, [3]int{58, 512, n})
	}
	return shapes
}

// TestMatMulBitIdenticalToAxpyLoop pins MatMul, MatMulInto and MatMulTA
// to the axpy-per-row loop bit for bit, under the AVX2 kernels and the
// scalar fallback alike: any reassociation of a C element's sum fails.
func TestMatMulBitIdenticalToAxpyLoop(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(15))
		for _, s := range bitShapes(r) {
			m, k, n := s[0], s[1], s[2]
			a := FromSlice(randZeros(r, m*k), m, k)
			at := FromSlice(randZeros(r, k*m), k, m)
			b := randT(r, k, n)
			want := make([]float32, m*n)
			label := fmt.Sprintf("%v", s)

			axpyLoop(axpy, a.Data, k, 1, b.Data, n, want, n, m, k, n)
			sameBits(t, "matmul "+label, MatMul(a, b).Data, want)
			out := New(m, n)
			for i := range out.Data {
				out.Data[i] = float32(math.NaN()) // must be overwritten
			}
			MatMulInto(a, b, out)
			sameBits(t, "matmul into "+label, out.Data, want)

			axpyLoop(axpy, at.Data, 1, m, b.Data, n, want, n, m, k, n)
			sameBits(t, "matmulTA "+label, MatMulTA(at, b).Data, want)
		}
		// k = 0 has no tensor shape; drive the kernel directly. C is zeroed.
		for _, mn := range [][2]int{{1, 1}, {4, 16}, {9, 35}} {
			c := make([]float32, mn[0]*mn[1])
			for i := range c {
				c[i] = 7
			}
			gemm(make([]float32, mn[0]), 1, 1, make([]float32, mn[1]), c, mn[0], 0, mn[1])
			sameBits(t, fmt.Sprintf("k=0 %v", mn), c, make([]float32, len(c)))
		}
	})
}

// checkBlockKernel drives one 4×16 block kernel directly with A in both
// stride layouts (row-major and transposed), B and C wider than the
// block, and k = 0, against axpyLoop over the matching axpy.
func checkBlockKernel(t *testing.T, kernel func([]float32, int, int, []float32, int, []float32, int, int),
	axpyFn func(float32, []float32, []float32)) {
	r := rand.New(rand.NewSource(16))
	const ldb, ldc = 21, 19
	for _, k := range []int{0, 1, 2, 3, 7, 54, 144, 512} {
		for _, transA := range []bool{false, true} {
			rs, ks := k, 1
			if transA {
				rs, ks = 1, mrTile
			}
			a := randZeros(r, mrTile*k)
			b := randZeros(r, k*ldb)
			got := make([]float32, mrTile*ldc)
			want := make([]float32, mrTile*ldc)
			for i := range got {
				got[i], want[i] = 5, 5
			}
			kernel(a, rs, ks, b, ldb, got, ldc, k)
			axpyLoop(axpyFn, a, rs, ks, b, ldb, want, ldc, mrTile, k, 16)
			sameBits(t, fmt.Sprintf("k=%d transA=%v", k, transA), got, want)
		}
	}
}

func TestGemm4x16GenericBitIdentical(t *testing.T) {
	checkBlockKernel(t, gemm4x16Generic, axpyGeneric)
}

func TestIm2ColIntoReusesBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g, err := NewConvGeom(2, 3, 3, 1, 1, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	x := randT(r, 2, 2, 6, 6)
	want := Im2Col(x, g)
	buf := New(want.Shape[0], want.Shape[1])
	for i := range buf.Data {
		buf.Data[i] = 7 // dirty
	}
	got := Im2ColInto(x, g, buf)
	if &got.Data[0] != &buf.Data[0] {
		t.Fatal("Im2ColInto did not reuse the matching buffer")
	}
	compareT(t, "im2col into", got, want, 0)
	// Mismatched buffer: must allocate fresh, not clobber.
	small := New(1, 1)
	got2 := Im2ColInto(x, g, small)
	if &got2.Data[0] == &small.Data[0] {
		t.Fatal("Im2ColInto reused a mismatched buffer")
	}
	compareT(t, "im2col fresh", got2, want, 0)
}

// BenchmarkMatMulEncoderShapes times the RICC encoder's three GEMMs at a
// 58-tile batch (one granule's tiles) through MatMulInto and through the
// axpy-per-row oracle, reporting GFLOP/s. MatMulInto forks over
// GOMAXPROCS and the oracle does not; compare them with -cpu 1.
func BenchmarkMatMulEncoderShapes(b *testing.B) {
	const n = 58
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"conv1", 64 * n, 54, 16},
		{"conv2", 16 * n, 144, 32},
		{"dense", n, 512, 32},
	}
	for _, s := range shapes {
		r := rand.New(rand.NewSource(17))
		a := FromSlice(randZeros(r, s.m*s.k), s.m, s.k)
		w := randT(r, s.k, s.n)
		out := New(s.m, s.n)
		flops := 2 * float64(s.m*s.k*s.n)
		run := func(name string, fn func()) {
			b.Run(s.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
		run("kernel", func() { MatMulInto(a, w, out) })
		run("axpy", func() { axpyLoop(axpy, a.Data, s.k, 1, w.Data, s.n, out.Data, s.n, s.m, s.k, s.n) })
	}
}
