// Inference-only forward passes.
//
// Infer and InferBatchQ8 differ from Forward in two ways that matter
// for the serving path:
//
//   - No state is saved for Backward, so one model can serve concurrent
//     calls.
//   - Scratch and output buffers come from tensor.Get (bufpool's
//     float32 and int8 classes), so steady-state inference recycles
//     memory instead of regrowing the heap every batch.
//
// Infer is the float path: each convolution materializes the im2col
// matrix in pooled scratch and runs ONE blocked SIMD GEMM for the whole
// batch — the same kernel schedule as Forward, minus its allocations,
// so the results are bit-identical to Forward's. InferBatchQ8 is the
// int8 variant.
//
// Buffer ownership: a layer's Infer/InferBatchQ8 may return a pooled
// tensor or a view of its input (reshapes). The Sequential drivers
// recycle each intermediate back into the pool once the next layer has
// consumed it, except when the next output aliases it. The tensor
// returned to the caller is pooled: the caller must copy out what it
// keeps and should tensor.Put it back. Never Put the same backing
// twice.

package nn

import (
	"fmt"
	"math"

	"github.com/eoml/eoml/internal/tensor"
)

func sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// sameBase reports whether two tensors share a backing array (one is a
// reshape view of the other).
func sameBase(a, b *tensor.T) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// Infer computes the convolution as im2col + one blocked GEMM over the
// whole batch, with both the column matrix and the product living in
// pooled scratch. Weights stay in their training layout [InC*K*K, OutC],
// so no per-call transpose is needed.
func (l *Conv2D) Infer(x *tensor.T) *tensor.T {
	g := l.geom
	if len(x.Shape) != 4 || x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic(fmt.Sprintf("nn: %s: input %v, want [N %d %d %d]", l.label, x.Shape, g.InC, g.InH, g.InW))
	}
	n := x.Shape[0]
	plane := g.OutH * g.OutW
	rows, width := n*plane, g.InC*g.Kernel*g.Kernel
	cols := tensor.Get(rows, width)
	tensor.Im2ColInto(x, g, cols) // overwrites every element
	prod := tensor.Get(rows, g.OutC)
	tensor.MatMulInto(cols, l.w.W, prod)
	tensor.Put(cols)
	// Rearrange the [N*OH*OW, OutC] product into NCHW and add the bias,
	// the same epilogue Forward runs — results are bit-identical.
	out := tensor.Get(n, g.OutC, g.OutH, g.OutW)
	bias := l.b.W.Data
	for b := 0; b < n; b++ {
		for p := 0; p < plane; p++ {
			row := prod.Data[(b*plane+p)*g.OutC:]
			for oc := 0; oc < g.OutC; oc++ {
				out.Data[(b*g.OutC+oc)*plane+p] = row[oc] + bias[oc]
			}
		}
	}
	tensor.Put(prod)
	return out
}

// invalidateQuant drops the cached int8 weights; Forward calls it so
// the next Q8 inference requantizes post-training-step weights.
func (l *Conv2D) invalidateQuant() {
	l.qmu.Lock()
	l.qw = nil
	l.qmu.Unlock()
}

// quantWeights returns the per-output-channel int8 weights, quantizing
// on first use and caching until the next Forward invalidates.
func (l *Conv2D) quantWeights() *tensor.QWeights {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if l.qw == nil {
		l.qw = tensor.QuantizeWeights(l.w.W)
	}
	return l.qw
}

// InferBatchQ8 is Infer with the GEMM in symmetric int8: the input
// tensor is quantized once per call (cheaper than quantizing the
// K²-times-larger column matrix, and bit-identical to it — symmetric
// quantization maps the zero padding to int8 zero), the bytes are
// gathered into an int8 column matrix, and one int8×int8→int32 GEMM
// rescales directly into the float product. Bias addition and the NCHW
// epilogue stay in float32, identical to Infer.
func (l *Conv2D) InferBatchQ8(x *tensor.T) *tensor.T {
	g := l.geom
	if len(x.Shape) != 4 || x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic(fmt.Sprintf("nn: %s: input %v, want [N %d %d %d]", l.label, x.Shape, g.InC, g.InH, g.InW))
	}
	qw := l.quantWeights()
	n := x.Shape[0]
	plane := g.OutH * g.OutW
	rows, width := n*plane, g.InC*g.Kernel*g.Kernel
	xq := tensor.GetI8(len(x.Data))
	sx := tensor.Quantize(xq, x.Data)
	cols := tensor.GetI8(rows * width)
	tensor.Im2ColQ8Into(xq, n, g, cols)
	tensor.PutI8(xq)
	prod := tensor.Get(rows, g.OutC)
	tensor.MatMulQ8Into(cols, sx, qw, rows, prod.Data)
	tensor.PutI8(cols)
	out := tensor.Get(n, g.OutC, g.OutH, g.OutW)
	bias := l.b.W.Data
	for b := 0; b < n; b++ {
		for p := 0; p < plane; p++ {
			row := prod.Data[(b*plane+p)*g.OutC:]
			for oc := 0; oc < g.OutC; oc++ {
				out.Data[(b*g.OutC+oc)*plane+p] = row[oc] + bias[oc]
			}
		}
	}
	tensor.Put(prod)
	return out
}

// Infer computes x·W + b into a pooled buffer.
func (l *Dense) Infer(x *tensor.T) *tensor.T {
	if len(x.Shape) != 2 || x.Shape[1] != l.in {
		panic(fmt.Sprintf("nn: %s: input %v, want [N %d]", l.label, x.Shape, l.in))
	}
	out := tensor.Get(x.Shape[0], l.out)
	tensor.MatMulInto(x, l.w.W, out)
	bias := l.b.W.Data
	for r := 0; r < out.Shape[0]; r++ {
		row := out.Data[r*l.out : (r+1)*l.out]
		for j, bv := range bias {
			row[j] += bv
		}
	}
	return out
}

// invalidateQuant drops the cached int8 weights (see Conv2D).
func (l *Dense) invalidateQuant() {
	l.qmu.Lock()
	l.qw = nil
	l.qmu.Unlock()
}

// quantWeights returns the cached per-output-channel int8 weights.
func (l *Dense) quantWeights() *tensor.QWeights {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if l.qw == nil {
		l.qw = tensor.QuantizeWeights(l.w.W)
	}
	return l.qw
}

// InferBatchQ8 computes x·W + b with the GEMM in symmetric int8: x is
// quantized per tensor, W per output channel, and the int32 accumulator
// rescales straight into the float output before the float bias add.
func (l *Dense) InferBatchQ8(x *tensor.T) *tensor.T {
	if len(x.Shape) != 2 || x.Shape[1] != l.in {
		panic(fmt.Sprintf("nn: %s: input %v, want [N %d]", l.label, x.Shape, l.in))
	}
	qw := l.quantWeights()
	m := x.Shape[0]
	xq := tensor.GetI8(len(x.Data))
	sx := tensor.Quantize(xq, x.Data)
	out := tensor.Get(m, l.out)
	tensor.MatMulQ8Into(xq, sx, qw, m, out.Data)
	tensor.PutI8(xq)
	bias := l.b.W.Data
	for r := 0; r < m; r++ {
		row := out.Data[r*l.out : (r+1)*l.out]
		for j, bv := range bias {
			row[j] += bv
		}
	}
	return out
}

// Infer applies the activation into a pooled buffer.
func (l *LeakyReLU) Infer(x *tensor.T) *tensor.T {
	out := tensor.Get(x.Shape...)
	for i, v := range x.Data {
		if v < 0 {
			v *= l.alpha
		}
		out.Data[i] = v
	}
	return out
}

// InferBatchQ8 is Infer: activations stay in float32; only GEMM layers
// quantize.
func (l *LeakyReLU) InferBatchQ8(x *tensor.T) *tensor.T { return l.Infer(x) }

// Infer applies the logistic function into a pooled buffer.
func (l *Sigmoid) Infer(x *tensor.T) *tensor.T {
	out := tensor.Get(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = sigmoid32(v)
	}
	return out
}

// InferBatchQ8 is Infer: activations stay in float32.
func (l *Sigmoid) InferBatchQ8(x *tensor.T) *tensor.T { return l.Infer(x) }

// Infer returns a flattened view; no buffer changes hands.
func (l *Flatten) Infer(x *tensor.T) *tensor.T {
	return x.Reshape(x.Shape[0], x.Len()/x.Shape[0])
}

// InferBatchQ8 is Infer: reshapes carry no arithmetic to quantize.
func (l *Flatten) InferBatchQ8(x *tensor.T) *tensor.T { return l.Infer(x) }

// Infer returns an NCHW view; no buffer changes hands.
func (l *Reshape4D) Infer(x *tensor.T) *tensor.T {
	return x.Reshape(x.Shape[0], l.c, l.h, l.w)
}

// InferBatchQ8 is Infer: reshapes carry no arithmetic to quantize.
func (l *Reshape4D) InferBatchQ8(x *tensor.T) *tensor.T { return l.Infer(x) }

// Infer upsamples into a pooled buffer.
func (l *Upsample2x) Infer(x *tensor.T) *tensor.T {
	out := tensor.Get(x.Shape[0], x.Shape[1], 2*x.Shape[2], 2*x.Shape[3])
	tensor.Upsample2xInto(x, out)
	return out
}

// InferBatchQ8 is Infer: nearest-neighbor copies carry no arithmetic.
func (l *Upsample2x) InferBatchQ8(x *tensor.T) *tensor.T { return l.Infer(x) }

// run drives the layer chain through step, recycling every intermediate
// buffer back into the pool as soon as the next layer has consumed it
// (unless the new output aliases it — a reshape view — or the caller's
// own input).
func (s *Sequential) run(x *tensor.T, step func(Layer, *tensor.T) *tensor.T) *tensor.T {
	cur := x
	for _, l := range s.Layers {
		next := step(l, cur)
		if cur != x && !sameBase(cur, next) && !sameBase(cur, x) {
			tensor.Put(cur)
		}
		cur = next
	}
	return cur
}

// Infer runs all layers through their Infer kernels: one blocked
// matmul per layer for the whole batch. The returned tensor is pooled;
// the caller copies out what it keeps and Puts it back.
func (s *Sequential) Infer(x *tensor.T) *tensor.T {
	return s.run(x, Layer.Infer)
}

// InferBatchQ8 runs all layers through the symmetric int8 GEMM kernels;
// Infer is its accuracy oracle (ricc pins the divergence with a
// cosine-similarity floor and a label-flip gate). Same ownership
// contract as Infer.
func (s *Sequential) InferBatchQ8(x *tensor.T) *tensor.T {
	return s.run(x, Layer.InferBatchQ8)
}
