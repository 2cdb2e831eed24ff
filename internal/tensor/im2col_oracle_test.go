package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// im2colTapOracle is the im2col loop the branch-free gather replaced,
// kept as its oracle: one scalar per tap, each behind a bounds test.
func im2colTapOracle[E float32 | int8](x []E, n int, g ConvGeom, dst []E) {
	k, stride, pad := g.Kernel, g.Stride, g.Pad
	inPlane := g.InH * g.InW
	for row := 0; row < n*g.OutH; row++ {
		b := row / g.OutH
		oy := row % g.OutH
		for ox := 0; ox < g.OutW; ox++ {
			out := dst[(row*g.OutW+ox)*g.InC*k*k:]
			di := 0
			for c := 0; c < g.InC; c++ {
				src := x[(b*g.InC+c)*inPlane:]
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky - pad
					for kx := 0; kx < k; kx++ {
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							out[di] = src[iy*g.InW+ix]
						} else {
							out[di] = 0
						}
						di++
					}
				}
			}
		}
	}
}

// TestIm2ColMatchesTapOracle pins Im2ColInto and Im2ColQ8Into to the
// per-tap oracle bit for bit over every geometry with stride 1–3, pad
// 0–3 and kernel 1–5 on ragged inputs (sides not a multiple of the
// stride, including inputs smaller than the kernel), writing into
// destinations left dirty by NaN and 0x55 fill.
func TestIm2ColMatchesTapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	checked := 0
	for k := 1; k <= 5; k++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 3; pad++ {
				for _, hw := range [][2]int{{1, 1}, {3, 7}, {8, 8}, {9, 5}, {16, 16}, {11, 13}} {
					n, inC := 1+r.Intn(3), 1+r.Intn(3)
					g, err := NewConvGeom(inC, 4, k, stride, pad, hw[0], hw[1])
					if err != nil {
						continue // output would be empty
					}
					name := fmt.Sprintf("n%d c%d k%d s%d p%d %dx%d", n, inC, k, stride, pad, hw[0], hw[1])
					rows, width := n*g.OutH*g.OutW, inC*k*k

					x := New(n, inC, hw[0], hw[1])
					x.Randn(r, 1)
					want := make([]float32, rows*width)
					im2colTapOracle(x.Data, n, g, want)
					dirty := New(rows, width)
					for i := range dirty.Data {
						dirty.Data[i] = float32(math.NaN())
					}
					got := Im2ColInto(x, g, dirty)
					for i := range want {
						if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s: float32 col[%d] = %v, oracle %v", name, i, got.Data[i], want[i])
						}
					}

					xq := make([]int8, len(x.Data))
					Quantize(xq, x.Data)
					wantQ := make([]int8, rows*width)
					im2colTapOracle(xq, n, g, wantQ)
					gotQ := make([]int8, rows*width)
					for i := range gotQ {
						gotQ[i] = 0x55
					}
					Im2ColQ8Into(xq, n, g, gotQ)
					for i := range wantQ {
						if gotQ[i] != wantQ[i] {
							t.Fatalf("%s: int8 col[%d] = %d, oracle %d", name, i, gotQ[i], wantQ[i])
						}
					}
					checked++
				}
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d geometries checked", checked)
	}
}
