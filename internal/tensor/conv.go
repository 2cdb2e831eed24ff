package tensor

import "fmt"

// ConvGeom describes a square-kernel 2-D convolution.
type ConvGeom struct {
	InC, OutC  int
	Kernel     int
	Stride     int
	Pad        int
	InH, InW   int
	OutH, OutW int
}

// NewConvGeom validates and completes a convolution geometry.
func NewConvGeom(inC, outC, kernel, stride, pad, inH, inW int) (ConvGeom, error) {
	g := ConvGeom{InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad, InH: inH, InW: inW}
	if inC <= 0 || outC <= 0 || kernel <= 0 || stride <= 0 || pad < 0 {
		return g, fmt.Errorf("tensor: invalid conv geometry %+v", g)
	}
	g.OutH = (inH+2*pad-kernel)/stride + 1
	g.OutW = (inW+2*pad-kernel)/stride + 1
	if g.OutH <= 0 || g.OutW <= 0 {
		return g, fmt.Errorf("tensor: conv output empty for %+v", g)
	}
	return g, nil
}

// Im2Col unfolds input x of shape [N, InC, InH, InW] into a matrix of
// shape [N*OutH*OutW, InC*K*K], so convolution becomes one matmul with a
// weight matrix of shape [InC*K*K, OutC]. This is the standard im2col
// formulation; the ablation bench compares it against the direct loop.
func Im2Col(x *T, g ConvGeom) *T {
	return Im2ColInto(x, g, nil)
}

// Im2ColInto is Im2Col writing into dst when dst already has the right
// shape; otherwise (nil or mismatched) a fresh matrix is allocated. It
// returns the matrix used, letting layers reuse their im2col buffer
// across batches instead of regrowing the heap every forward pass.
func Im2ColInto(x *T, g ConvGeom, dst *T) *T {
	n := x.Shape[0]
	rows, width := n*g.OutH*g.OutW, g.InC*g.Kernel*g.Kernel
	cols := dst
	if cols == nil || len(cols.Shape) != 2 || cols.Shape[0] != rows || cols.Shape[1] != width {
		cols = New(rows, width)
	}
	im2col(x.Data, n, g, cols.Data)
	return cols
}

// im2col unfolds the NCHW input x (n batch items) into the
// [n·OutH·OutW, InC·K·K] column matrix dst, overwriting every element of
// its first n·OutH·OutW rows. It writes dst in order, one output pixel's
// row at a time, which is the order the GEMM reads its A operand. Each
// kernel row (c, ky) of a pixel's taps is a run of K adjacent input
// values, copied without a bounds test: where taps reach past the input
// (padding, or a kernel wider than what is left of it), each batch item
// is first staged once into a zero-bordered copy that covers every tap.
func im2col[E float32 | int8](x []E, n int, g ConvGeom, dst []E) {
	k, stride, pad := g.Kernel, g.Stride, g.Pad
	width := g.InC * k * k
	inPlane := g.InH * g.InW
	// The taps cover rows [-pad, sh-pad) and columns [-pad, sw-pad).
	sh, sw := (g.OutH-1)*stride+k, (g.OutW-1)*stride+k
	stage := pad > 0 || sh > g.InH || sw > g.InW
	pitch, plane := g.InW, inPlane
	if stage {
		pitch, plane = sw, sh*sw
	}
	parallelWork(n*g.OutH, g.OutW*width, func(lo, hi int) {
		var staged []E // zero outside the copied input, never written there
		if stage {
			staged = make([]E, g.InC*plane)
		}
		var src []E
		item := -1
		for row := lo; row < hi; row++ {
			if b := row / g.OutH; b != item {
				item = b
				src = x[b*g.InC*inPlane : (b+1)*g.InC*inPlane]
				if stage {
					stageItem(staged, src, g, sh, sw)
					src = staged
				}
			}
			top := row % g.OutH * stride * pitch
			for ox := 0; ox < g.OutW; ox++ {
				out := dst[(row*g.OutW+ox)*width : (row*g.OutW+ox+1)*width]
				di := 0
				for c := 0; c < g.InC; c++ {
					at := c*plane + top + ox*stride
					if k == 3 { // the encoder's kernel: three fixed-size rows
						o := (*[9]E)(out[di:])
						r0, r1, r2 := (*[3]E)(src[at:]), (*[3]E)(src[at+pitch:]), (*[3]E)(src[at+2*pitch:])
						o[0], o[1], o[2] = r0[0], r0[1], r0[2]
						o[3], o[4], o[5] = r1[0], r1[1], r1[2]
						o[6], o[7], o[8] = r2[0], r2[1], r2[2]
						di += 9
						continue
					}
					for ky := 0; ky < k; ky++ {
						copy(out[di:di+k], src[at:at+k])
						di += k
						at += pitch
					}
				}
			}
		}
	})
}

// stageItem copies one batch item's planes into staged, whose planes are
// sh×sw with the input's pixel (0, 0) at (pad, pad), clipping what no tap
// reaches.
func stageItem[E float32 | int8](staged, item []E, g ConvGeom, sh, sw int) {
	cols := min(g.InW, sw-g.Pad)
	if cols <= 0 {
		return
	}
	for c := 0; c < g.InC; c++ {
		for y := 0; y < g.InH && y+g.Pad < sh; y++ {
			at := c*sh*sw + (y+g.Pad)*sw + g.Pad
			copy(staged[at:at+cols], item[(c*g.InH+y)*g.InW:])
		}
	}
}

// Col2Im folds a column-gradient matrix (shape [N*OutH*OutW, InC*K*K])
// back into an input-shaped gradient [N, InC, InH, InW], accumulating
// overlapping contributions — the adjoint of Im2Col.
func Col2Im(cols *T, n int, g ConvGeom) *T {
	k, stride, pad := g.Kernel, g.Stride, g.Pad
	out := New(n, g.InC, g.InH, g.InW)
	inPlane := g.InH * g.InW
	// Parallel over batch items: each item's output plane is private.
	parallelWork(n, g.OutH*g.OutW*g.InC*k*k, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					src := cols.Data[((b*g.OutH+oy)*g.OutW+ox)*g.InC*k*k:]
					si := 0
					for c := 0; c < g.InC; c++ {
						dst := out.Data[(b*g.InC+c)*inPlane:]
						for ky := 0; ky < k; ky++ {
							iy := oy*stride + ky - pad
							for kx := 0; kx < k; kx++ {
								ix := ox*stride + kx - pad
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									dst[iy*g.InW+ix] += src[si]
								}
								si++
							}
						}
					}
				}
			}
		}
	})
	return out
}

// ConvDirect computes the convolution with plain nested loops (no im2col
// buffer). Used as the reference implementation in tests and as the
// baseline in the im2col ablation bench. Weights have shape
// [OutC, InC, K, K]; bias (optional) has shape [OutC].
func ConvDirect(x, w, bias *T, g ConvGeom) *T {
	n := x.Shape[0]
	out := New(n, g.OutC, g.OutH, g.OutW)
	k, stride, pad := g.Kernel, g.Stride, g.Pad
	inPlane := g.InH * g.InW
	outPlane := g.OutH * g.OutW
	parallelWork(n*g.OutC, g.OutH*g.OutW*g.InC*k*k, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			b := row / g.OutC
			oc := row % g.OutC
			dst := out.Data[(b*g.OutC+oc)*outPlane:]
			var bv float32
			if bias != nil {
				bv = bias.Data[oc]
			}
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					s := bv
					for c := 0; c < g.InC; c++ {
						src := x.Data[(b*g.InC+c)*inPlane:]
						wBase := ((oc * g.InC) + c) * k * k
						for ky := 0; ky < k; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= g.InH {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= g.InW {
									continue
								}
								s += src[iy*g.InW+ix] * w.Data[wBase+ky*k+kx]
							}
						}
					}
					dst[oy*g.OutW+ox] = s
				}
			}
		}
	})
	return out
}

// Rot90 rotates each spatial plane of an [N, C, H, W] tensor by 90°×times
// counterclockwise. H must equal W.
func Rot90(x *T, times int) *T {
	if len(x.Shape) != 4 || x.Shape[2] != x.Shape[3] {
		panic(fmt.Sprintf("tensor: rot90 on shape %v", x.Shape))
	}
	times = ((times % 4) + 4) % 4
	if times == 0 {
		return x.Clone()
	}
	n, c, h := x.Shape[0], x.Shape[1], x.Shape[2]
	out := New(n, c, h, h)
	plane := h * h
	for p := 0; p < n*c; p++ {
		src := x.Data[p*plane : (p+1)*plane]
		dst := out.Data[p*plane : (p+1)*plane]
		for y := 0; y < h; y++ {
			for xx := 0; xx < h; xx++ {
				var sy, sx int
				switch times {
				case 1: // 90° CCW: dst(y,x) = src(x, h-1-y)
					sy, sx = xx, h-1-y
				case 2:
					sy, sx = h-1-y, h-1-xx
				case 3:
					sy, sx = h-1-xx, y
				}
				dst[y*h+xx] = src[sy*h+sx]
			}
		}
	}
	return out
}

// Upsample2x nearest-neighbor upsamples an [N, C, H, W] tensor to
// [N, C, 2H, 2W].
func Upsample2x(x *T) *T {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, 2*h, 2*w)
	Upsample2xInto(x, out)
	return out
}

// Upsample2xInto is Upsample2x writing into out, which must have shape
// [N, C, 2H, 2W]. Every element is overwritten.
func Upsample2xInto(x, out *T) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if len(out.Shape) != 4 || out.Shape[0] != n || out.Shape[1] != c || out.Shape[2] != 2*h || out.Shape[3] != 2*w {
		panic(fmt.Sprintf("tensor: upsample into %v from %v", out.Shape, x.Shape))
	}
	for p := 0; p < n*c; p++ {
		src := x.Data[p*h*w:]
		dst := out.Data[p*4*h*w:]
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				v := src[y*w+xx]
				o := (2*y)*(2*w) + 2*xx
				dst[o] = v
				dst[o+1] = v
				dst[o+2*w] = v
				dst[o+2*w+1] = v
			}
		}
	}
}

// Downsample2xSum is the adjoint of Upsample2x: each output cell is the
// sum of its 2×2 source block.
func Downsample2xSum(x *T) *T {
	n, c, h2, w2 := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	h, w := h2/2, w2/2
	out := New(n, c, h, w)
	for p := 0; p < n*c; p++ {
		src := x.Data[p*h2*w2:]
		dst := out.Data[p*h*w:]
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				o := (2*y)*w2 + 2*xx
				dst[y*w+xx] = src[o] + src[o+1] + src[o+w2] + src[o+w2+1]
			}
		}
	}
	return out
}
