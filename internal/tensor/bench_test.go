package tensor_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/eoml/eoml/internal/tensor"
)

// BenchmarkMatMulBlocked compares the naive oracle against the blocked
// SIMD kernel at a 512^3 shape.
func BenchmarkMatMulBlocked(b *testing.B) {
	const m, k, n = 512, 512, 512
	r := rand.New(rand.NewSource(11))
	a := tensor.New(m, k)
	a.Randn(r, 1)
	c := tensor.New(k, n)
	c.Randn(r, 1)
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tensor.MatMulNaive(a, c)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tensor.MatMul(a, c)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkMatMulSmall covers the GEMM shapes the work-aware parallel
// cutoff exists for: per-tile conv matmuls too small to amortize a
// goroutine handoff. Before the flops-based cutoff these forked on row
// count alone and lost the win to scheduling overhead.
func BenchmarkMatMulSmall(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	for _, s := range []struct{ m, k, n int }{
		{16, 54, 16},   // conv1 of a 4 px tile batch
		{64, 144, 32},  // conv2 of a small batch
		{32, 512, 512}, // skinny dense slab
	} {
		a := tensor.New(s.m, s.k)
		a.Randn(r, 1)
		c := tensor.New(s.k, s.n)
		c.Randn(r, 1)
		flops := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = tensor.MatMul(a, c)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkAblationConv is the convolution-strategy ablation: im2col +
// one GEMM against the direct loop nest, on one 8-tile batch.
func BenchmarkAblationConv(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, err := tensor.NewConvGeom(6, 16, 3, 2, 1, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(8, 6, 32, 32)
	x.Randn(r, 1)
	w := tensor.New(16, 6, 3, 3)
	w.Randn(r, 0.5)
	wmat := tensor.New(6*3*3, 16)
	for oc := 0; oc < 16; oc++ {
		for i := 0; i < 6*3*3; i++ {
			wmat.Data[i*16+oc] = w.Data[oc*6*3*3+i]
		}
	}
	b.Run("im2col", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cols := tensor.Im2Col(x, g)
			_ = tensor.MatMul(cols, wmat)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tensor.ConvDirect(x, w, nil, g)
		}
	})
}

// BenchmarkIm2ColEncoderShapes times the column gather of the RICC
// encoder's two convolutions on a 58-tile batch of 16×16×6 tiles, the
// batch a typical day granule labels, in both precisions.
func BenchmarkIm2ColEncoderShapes(b *testing.B) {
	const tiles = 58
	r := rand.New(rand.NewSource(13))
	for _, s := range []struct {
		name            string
		inC, outC, side int
	}{
		{"conv1", 6, 16, 16},
		{"conv2", 16, 32, 8},
	} {
		g, err := tensor.NewConvGeom(s.inC, s.outC, 3, 2, 1, s.side, s.side)
		if err != nil {
			b.Fatal(err)
		}
		x := tensor.New(tiles, s.inC, s.side, s.side)
		x.Randn(r, 1)
		rows, width := tiles*g.OutH*g.OutW, s.inC*9
		cols := tensor.New(rows, width)
		b.Run(s.name+"/float32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.Im2ColInto(x, g, cols)
			}
			b.ReportMetric(float64(rows*width*4*b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
		xq := make([]int8, len(x.Data))
		tensor.Quantize(xq, x.Data)
		colsQ := make([]int8, rows*width)
		b.Run(s.name+"/int8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.Im2ColQ8Into(xq, tiles, g, colsQ)
			}
			b.ReportMetric(float64(rows*width*b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
