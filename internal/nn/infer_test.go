package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/eoml/eoml/internal/tensor"
)

// riccLikeStack builds an encoder+decoder chain exercising every layer
// type the RICC autoencoder uses: conv, activations, flatten/reshape,
// dense, and nearest-neighbor upsampling.
func riccLikeStack(t *testing.T, r *rand.Rand) *Sequential {
	t.Helper()
	c1, err := NewConv2D("c1", 3, 8, 3, 2, 1, 16, 16, r)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewConv2D("c2", 8, 4, 3, 1, 1, 8, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := NewConv2D("c3", 4, 3, 3, 1, 1, 16, 16, r)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential("stack",
		c1, NewLeakyReLU("a1", 0.1),
		c2, NewLeakyReLU("a2", 0.1),
		NewFlatten("fl"),
		NewDense("d1", 4*8*8, 4*8*8, r),
		NewReshape4D("rs", 4, 8, 8),
		NewUpsample2x("up"),
		c3, NewSigmoid("sg"),
	)
}

func inferDiff(got, want *tensor.T) float64 {
	worst := 0.0
	for i := range want.Data {
		d := math.Abs(float64(got.Data[i]-want.Data[i])) / (1 + math.Abs(float64(want.Data[i])))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestInferConcurrent runs concurrent Infer calls on one model, each
// with a private arena, under the race detector: Infer must not touch
// shared layer state the way Forward does.
func TestInferConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	model := riccLikeStack(t, r)
	x := tensor.New(3, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(r.Float64())
	}
	want := model.Forward(x)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := tensor.NewLocal()
			for iter := 0; iter < 5; iter++ {
				got := model.Infer(x, arena)
				if d := inferDiff(got, want); d > 1e-5 {
					t.Errorf("worst relative diff %g", d)
					return
				}
				arena.Put(got)
			}
		}()
	}
	wg.Wait()
}

// TestInferBatchMatchesForward pins the batch-GEMM path to the training
// forward pass bit-for-bit: both run im2col + the blocked matmul with
// the identical bias/NCHW epilogue, so any drift means the batched
// kernels diverged. Covers N=1 and batch sizes that are not multiples
// of the GEMM register block, each over repeated passes that recycle
// the arena's buffers.
func TestInferBatchMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	model := riccLikeStack(t, r)
	for _, n := range []int{1, 3, 5, 7} {
		x := tensor.New(n, 3, 16, 16)
		for i := range x.Data {
			x.Data[i] = float32(r.Float64())
		}
		want := model.Forward(x)
		shards := tensor.NewShardedArena()
		arena := shards.Acquire()
		for pass := 0; pass < 3; pass++ { // repeated passes hit recycled buffers
			got := model.Infer(x, arena)
			if !got.SameShape(want) {
				t.Fatalf("n=%d pass %d: shape %v, want %v", n, pass, got.Shape, want.Shape)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d pass %d: Infer[%d]=%g, Forward=%g (want bit-identical)",
						n, pass, i, got.Data[i], want.Data[i])
				}
			}
			arena.Put(got)
		}
		shards.Release(arena)
	}
}

// cosine32 returns the cosine similarity of two equal-length float32
// slices.
func cosine32(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// TestInferBatchQ8CloseToFloat runs the full layer stack through the
// int8 path and pins its output to the float oracle with a cosine
// floor: quantization noise is bounded (one half-step per GEMM), so the
// two paths must stay nearly parallel.
func TestInferBatchQ8CloseToFloat(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	model := riccLikeStack(t, r)
	x := tensor.New(4, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(r.Float64())
	}
	want := model.Infer(x, nil)
	shards := tensor.NewShardedArena()
	arena := shards.Acquire()
	defer shards.Release(arena)
	for pass := 0; pass < 3; pass++ { // repeated passes hit recycled buffers
		got := model.InferBatchQ8(x, arena)
		if !got.SameShape(want) {
			t.Fatalf("pass %d: shape %v, want %v", pass, got.Shape, want.Shape)
		}
		if cos := cosine32(got.Data, want.Data); cos < 0.995 {
			t.Fatalf("pass %d: cosine vs float path %g < 0.995", pass, cos)
		}
		arena.Put(got)
	}
}

// TestInferBatchQ8Deterministic demands bit-identical output across
// calls and allocators: int32 accumulation makes the int8 path exactly
// reproducible, unlike the float path whose parallel split is benign
// only because the float kernels are also order-fixed.
func TestInferBatchQ8Deterministic(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	model := riccLikeStack(t, r)
	x := tensor.New(3, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(r.Float64())
	}
	first := model.InferBatchQ8(x, nil)
	arena := tensor.NewLocal()
	for pass := 0; pass < 3; pass++ {
		got := model.InferBatchQ8(x, arena)
		for i := range first.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(first.Data[i]) {
				t.Fatalf("pass %d: [%d] = %g, first run %g (want bit-identical)",
					pass, i, got.Data[i], first.Data[i])
			}
		}
		arena.Put(got)
	}
}

// TestInferBatchQ8RequantizesAfterForward proves the cached int8
// weights are invalidated by the training path: after Forward and a
// weight update, Q8 inference must see the new weights (scaling W by 2
// exactly doubles the symmetric-quantized output when bias is zero).
func TestInferBatchQ8RequantizesAfterForward(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	d := NewDense("d", 8, 4, r)
	x := tensor.New(2, 8)
	for i := range x.Data {
		x.Data[i] = float32(r.Float64())
	}
	var a *tensor.LocalArena // direct layer call: degrade to plain allocation
	before := d.InferBatchQ8(x, a)
	d.Forward(x) // the training path: invalidates the quantized cache
	for i := range d.w.W.Data {
		d.w.W.Data[i] *= 2
	}
	after := d.InferBatchQ8(x, a)
	for i := range before.Data {
		if after.Data[i] != 2*before.Data[i] {
			t.Fatalf("[%d] = %g after doubling W, want %g — stale quantized weights?",
				i, after.Data[i], 2*before.Data[i])
		}
	}
}

func TestInferBatchNilAllocator(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	model := riccLikeStack(t, r)
	x := tensor.New(2, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(r.Float64())
	}
	want := model.Forward(x)
	got := model.Infer(x, nil)
	if d := inferDiff(got, want); d != 0 {
		t.Fatalf("worst relative diff %g, want bit-identical", d)
	}
}
