// Package nn implements the small neural-network stack behind the RICC
// autoencoder: convolutional and dense layers with explicit forward and
// backward passes, the Adam optimizer, mean-squared-error reconstruction
// loss, and the rotation-invariance embedding penalty.
//
// The design is deliberately minimal — a Layer interface over NCHW
// tensors, a Sequential container, no autograd graph — because the paper's
// workflow needs reproducible CPU inference and small-scale training, not
// a general deep-learning framework.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/eoml/eoml/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.T
	G    *tensor.T
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// Layer is a differentiable module. Forward saves whatever it needs to
// compute Backward; layers are therefore stateful and single-stream (one
// forward, then one backward). Backward accumulates parameter gradients
// and returns the gradient with respect to the layer input.
//
// Infer and InferBatchQ8 are the inference-only passes: they save no
// state, so concurrent calls on the same layer are safe. Infer is the
// float path: convolutions run im2col + one blocked GEMM for the whole
// batch. InferBatchQ8 is Infer with the GEMM layers running the
// symmetric int8 kernel (weights quantized once per output channel and
// cached, activations quantized per tensor per call) — Infer is its
// accuracy oracle.
// Scratch and output buffers come from tensor.Get; see infer.go for the
// buffer ownership rules.
type Layer interface {
	Forward(x *tensor.T) *tensor.T
	Backward(grad *tensor.T) *tensor.T
	Infer(x *tensor.T) *tensor.T
	InferBatchQ8(x *tensor.T) *tensor.T
	Params() []*Param
	Name() string
}

// Conv2D is a square-kernel convolution over NCHW input, computed via
// im2col + matmul.
type Conv2D struct {
	label string
	geom  tensor.ConvGeom
	w     *Param // [InC*K*K, OutC] (matmul layout)
	b     *Param // [OutC]
	inN   int
	cols  *tensor.T // saved im2col matrix for backward

	// qmu guards the lazily quantized int8 weights. Forward (the
	// training path) invalidates the cache, so Q8 inference after a
	// training round requantizes the stepped weights.
	qmu sync.Mutex
	qw  *tensor.QWeights
}

// NewConv2D builds a convolution layer for a fixed input geometry, with
// He-style weight initialization from rng.
func NewConv2D(label string, inC, outC, kernel, stride, pad, inH, inW int, rng *rand.Rand) (*Conv2D, error) {
	geom, err := tensor.NewConvGeom(inC, outC, kernel, stride, pad, inH, inW)
	if err != nil {
		return nil, err
	}
	l := &Conv2D{
		label: label,
		geom:  geom,
		w:     newParam(label+".w", inC*kernel*kernel, outC),
		b:     newParam(label+".b", outC),
	}
	fanIn := float64(inC * kernel * kernel)
	l.w.W.Randn(rng, math.Sqrt(2/fanIn))
	return l, nil
}

// Name returns the layer label.
func (l *Conv2D) Name() string { return l.label }

// Params returns the trainable parameters.
func (l *Conv2D) Params() []*Param { return []*Param{l.w, l.b} }

// Geom exposes the convolution geometry (used to chain layer shapes).
func (l *Conv2D) Geom() tensor.ConvGeom { return l.geom }

// Forward computes the convolution.
func (l *Conv2D) Forward(x *tensor.T) *tensor.T {
	if len(x.Shape) != 4 || x.Shape[1] != l.geom.InC || x.Shape[2] != l.geom.InH || x.Shape[3] != l.geom.InW {
		panic(fmt.Sprintf("nn: %s: input %v, want [N %d %d %d]", l.label, x.Shape, l.geom.InC, l.geom.InH, l.geom.InW))
	}
	l.invalidateQuant()
	l.inN = x.Shape[0]
	// Im2ColInto reuses the previous batch's matrix when the shape is
	// unchanged, so steady-state training does not regrow the heap.
	l.cols = tensor.Im2ColInto(x, l.geom, l.cols)
	prod := tensor.MatMul(l.cols, l.w.W) // [N*OH*OW, OutC]
	out := tensor.New(l.inN, l.geom.OutC, l.geom.OutH, l.geom.OutW)
	plane := l.geom.OutH * l.geom.OutW
	for b := 0; b < l.inN; b++ {
		for p := 0; p < plane; p++ {
			row := prod.Data[(b*plane+p)*l.geom.OutC:]
			for oc := 0; oc < l.geom.OutC; oc++ {
				out.Data[(b*l.geom.OutC+oc)*plane+p] = row[oc] + l.b.W.Data[oc]
			}
		}
	}
	return out
}

// Backward accumulates dW, dB and returns dX.
func (l *Conv2D) Backward(grad *tensor.T) *tensor.T {
	plane := l.geom.OutH * l.geom.OutW
	// Rearrange grad from NCHW to rows matching the im2col product.
	gRows := tensor.New(l.inN*plane, l.geom.OutC)
	for b := 0; b < l.inN; b++ {
		for p := 0; p < plane; p++ {
			row := gRows.Data[(b*plane+p)*l.geom.OutC:]
			for oc := 0; oc < l.geom.OutC; oc++ {
				row[oc] = grad.Data[(b*l.geom.OutC+oc)*plane+p]
			}
		}
	}
	// dW = colsᵀ · gRows
	l.w.G.AddInPlace(tensor.MatMulTA(l.cols, gRows))
	// dB = column sums of gRows
	for r := 0; r < gRows.Shape[0]; r++ {
		row := gRows.Data[r*l.geom.OutC:]
		for oc := 0; oc < l.geom.OutC; oc++ {
			l.b.G.Data[oc] += row[oc]
		}
	}
	// dCols = gRows · Wᵀ: MatMulTB(A [m,k], B [n,k]) computes A·Bᵀ, and
	// W stored as [InC*K*K, OutC] is exactly the [n,k] operand needed.
	dCols := tensor.MatMulTB(gRows, l.w.W)
	return tensor.Col2Im(dCols, l.inN, l.geom)
}

// Dense is a fully connected layer over [N, In] input.
type Dense struct {
	label string
	in    int
	out   int
	w     *Param // [In, Out]
	b     *Param // [Out]
	x     *tensor.T

	// See Conv2D: lazily quantized weights, invalidated by Forward.
	qmu sync.Mutex
	qw  *tensor.QWeights
}

// NewDense builds a dense layer with Xavier initialization.
func NewDense(label string, in, out int, rng *rand.Rand) *Dense {
	l := &Dense{label: label, in: in, out: out, w: newParam(label+".w", in, out), b: newParam(label+".b", out)}
	l.w.W.Randn(rng, math.Sqrt(1/float64(in)))
	return l
}

// Name returns the layer label.
func (l *Dense) Name() string { return l.label }

// Params returns the trainable parameters.
func (l *Dense) Params() []*Param { return []*Param{l.w, l.b} }

// Forward computes x·W + b.
func (l *Dense) Forward(x *tensor.T) *tensor.T {
	if len(x.Shape) != 2 || x.Shape[1] != l.in {
		panic(fmt.Sprintf("nn: %s: input %v, want [N %d]", l.label, x.Shape, l.in))
	}
	l.invalidateQuant()
	l.x = x
	out := tensor.MatMul(x, l.w.W)
	for r := 0; r < out.Shape[0]; r++ {
		row := out.Data[r*l.out:]
		for j := 0; j < l.out; j++ {
			row[j] += l.b.W.Data[j]
		}
	}
	return out
}

// Backward accumulates gradients and returns dX.
func (l *Dense) Backward(grad *tensor.T) *tensor.T {
	l.w.G.AddInPlace(tensor.MatMulTA(l.x, grad))
	for r := 0; r < grad.Shape[0]; r++ {
		row := grad.Data[r*l.out:]
		for j := 0; j < l.out; j++ {
			l.b.G.Data[j] += row[j]
		}
	}
	// dX = grad · Wᵀ; W stored [In, Out] is the [n,k] operand of MatMulTB.
	return tensor.MatMulTB(grad, l.w.W)
}

// LeakyReLU applies max(x, alpha*x) elementwise.
type LeakyReLU struct {
	label string
	alpha float32
	x     *tensor.T
}

// NewLeakyReLU builds the activation with the given negative slope.
func NewLeakyReLU(label string, alpha float32) *LeakyReLU {
	return &LeakyReLU{label: label, alpha: alpha}
}

// Name returns the layer label.
func (l *LeakyReLU) Name() string { return l.label }

// Params returns nil; activations are parameter-free.
func (l *LeakyReLU) Params() []*Param { return nil }

// Forward applies the activation.
func (l *LeakyReLU) Forward(x *tensor.T) *tensor.T {
	l.x = x
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = v * l.alpha
		}
	}
	return out
}

// Backward gates the incoming gradient.
func (l *LeakyReLU) Backward(grad *tensor.T) *tensor.T {
	out := grad.Clone()
	for i, v := range l.x.Data {
		if v < 0 {
			out.Data[i] *= l.alpha
		}
	}
	return out
}

// Sigmoid squashes values into (0, 1); used on the decoder output since
// tile radiances are normalized to [0, 1].
type Sigmoid struct {
	label string
	y     *tensor.T
}

// NewSigmoid builds the activation.
func NewSigmoid(label string) *Sigmoid { return &Sigmoid{label: label} }

// Name returns the layer label.
func (l *Sigmoid) Name() string { return l.label }

// Params returns nil.
func (l *Sigmoid) Params() []*Param { return nil }

// Forward applies the logistic function.
func (l *Sigmoid) Forward(x *tensor.T) *tensor.T {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	l.y = out
	return out
}

// Backward multiplies by y(1-y).
func (l *Sigmoid) Backward(grad *tensor.T) *tensor.T {
	out := grad.Clone()
	for i, y := range l.y.Data {
		out.Data[i] *= y * (1 - y)
	}
	return out
}

// Flatten reshapes [N, C, H, W] to [N, C*H*W].
type Flatten struct {
	label string
	shape []int
}

// NewFlatten builds the reshape layer.
func NewFlatten(label string) *Flatten { return &Flatten{label: label} }

// Name returns the layer label.
func (l *Flatten) Name() string { return l.label }

// Params returns nil.
func (l *Flatten) Params() []*Param { return nil }

// Forward flattens all but the batch dimension.
func (l *Flatten) Forward(x *tensor.T) *tensor.T {
	l.shape = append([]int(nil), x.Shape...)
	return x.Reshape(x.Shape[0], x.Len()/x.Shape[0])
}

// Backward restores the saved shape.
func (l *Flatten) Backward(grad *tensor.T) *tensor.T {
	return grad.Reshape(l.shape...)
}

// Reshape4D reshapes [N, D] to [N, C, H, W].
type Reshape4D struct {
	label   string
	c, h, w int
}

// NewReshape4D builds the reshape layer.
func NewReshape4D(label string, c, h, w int) *Reshape4D {
	return &Reshape4D{label: label, c: c, h: h, w: w}
}

// Name returns the layer label.
func (l *Reshape4D) Name() string { return l.label }

// Params returns nil.
func (l *Reshape4D) Params() []*Param { return nil }

// Forward reshapes to NCHW.
func (l *Reshape4D) Forward(x *tensor.T) *tensor.T {
	return x.Reshape(x.Shape[0], l.c, l.h, l.w)
}

// Backward flattens back.
func (l *Reshape4D) Backward(grad *tensor.T) *tensor.T {
	return grad.Reshape(grad.Shape[0], l.c*l.h*l.w)
}

// Upsample2x doubles spatial resolution with nearest-neighbor copies; the
// decoder uses it in place of transposed convolutions.
type Upsample2x struct {
	label string
}

// NewUpsample2x builds the layer.
func NewUpsample2x(label string) *Upsample2x { return &Upsample2x{label: label} }

// Name returns the layer label.
func (l *Upsample2x) Name() string { return l.label }

// Params returns nil.
func (l *Upsample2x) Params() []*Param { return nil }

// Forward upsamples.
func (l *Upsample2x) Forward(x *tensor.T) *tensor.T { return tensor.Upsample2x(x) }

// Backward sum-pools the gradient (the exact adjoint).
func (l *Upsample2x) Backward(grad *tensor.T) *tensor.T { return tensor.Downsample2xSum(grad) }

// Sequential chains layers.
type Sequential struct {
	label  string
	Layers []Layer
}

// NewSequential builds a container.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{label: label, Layers: layers}
}

// Name returns the container label.
func (s *Sequential) Name() string { return s.label }

// Params concatenates all layer parameters.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.T) *tensor.T {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs all layers in reverse.
func (s *Sequential) Backward(grad *tensor.T) *tensor.T {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// ZeroGrad clears all parameter gradients.
func ZeroGrad(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}
