package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/eoml/eoml/internal/bufpool"
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

// TestInferConcurrent runs concurrent Infer calls on one model under
// the race detector: Infer must not touch shared layer state the way
// Forward does, and no two calls may share a pooled buffer.
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
			for iter := 0; iter < 5; iter++ {
				got := model.Infer(x)
				if d := inferDiff(got, want); d > 1e-5 {
					t.Errorf("worst relative diff %g", d)
					return
				}
				tensor.Put(got)
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
// pooled buffers.
func TestInferBatchMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	model := riccLikeStack(t, r)
	for _, n := range []int{1, 3, 5, 7} {
		x := tensor.New(n, 3, 16, 16)
		for i := range x.Data {
			x.Data[i] = float32(r.Float64())
		}
		want := model.Forward(x)
		for pass := 0; pass < 3; pass++ { // repeated passes hit recycled buffers
			got := model.Infer(x)
			if !got.SameShape(want) {
				t.Fatalf("n=%d pass %d: shape %v, want %v", n, pass, got.Shape, want.Shape)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d pass %d: Infer[%d]=%g, Forward=%g (want bit-identical)",
						n, pass, i, got.Data[i], want.Data[i])
				}
			}
			tensor.Put(got)
		}
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
	want := model.Infer(x)
	for pass := 0; pass < 3; pass++ { // repeated passes hit recycled buffers
		got := model.InferBatchQ8(x)
		if !got.SameShape(want) {
			t.Fatalf("pass %d: shape %v, want %v", pass, got.Shape, want.Shape)
		}
		if cos := cosine32(got.Data, want.Data); cos < 0.995 {
			t.Fatalf("pass %d: cosine vs float path %g < 0.995", pass, cos)
		}
		tensor.Put(got)
	}
}

// TestInferBatchQ8Deterministic demands bit-identical output across
// calls that recycle pooled buffers: int32 accumulation makes the int8 path exactly
// reproducible, unlike the float path whose parallel split is benign
// only because the float kernels are also order-fixed.
func TestInferBatchQ8Deterministic(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	model := riccLikeStack(t, r)
	x := tensor.New(3, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(r.Float64())
	}
	first := model.InferBatchQ8(x)
	for pass := 0; pass < 3; pass++ {
		got := model.InferBatchQ8(x)
		for i := range first.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(first.Data[i]) {
				t.Fatalf("pass %d: [%d] = %g, first run %g (want bit-identical)",
					pass, i, got.Data[i], first.Data[i])
			}
		}
		tensor.Put(got)
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
	before := d.InferBatchQ8(x)
	d.Forward(x) // the training path: invalidates the quantized cache
	for i := range d.w.W.Data {
		d.w.W.Data[i] *= 2
	}
	after := d.InferBatchQ8(x)
	for i := range before.Data {
		if after.Data[i] != 2*before.Data[i] {
			t.Fatalf("[%d] = %g after doubling W, want %g — stale quantized weights?",
				i, after.Data[i], 2*before.Data[i])
		}
	}
}

// poisonPools fills the float32 and int8 pools with NaN and 0xA5
// buffers, three of every class from the 4 KiB floor to 1 MiB (the
// largest scratch of riccLikeStack at n=7 is 252 KiB), so a kernel that
// leaves any pooled element unwritten reads poison.
func poisonPools() {
	var fs [][]float32
	var qs [][]int8
	for size := 4096; size <= 1<<20; size *= 2 {
		for k := 0; k < 3; k++ {
			f := bufpool.GetFloat32(size / 4)
			for i := range f {
				f[i] = float32(math.NaN())
			}
			q := bufpool.GetInt8(size)
			for i := range q {
				q[i] = -0x5B // 0xA5
			}
			fs, qs = append(fs, f), append(qs, q)
		}
	}
	for i := range fs {
		bufpool.PutFloat32(fs[i])
		bufpool.PutInt8(qs[i])
	}
}

// TestInferPoisonedPoolMatchesForward runs both inference paths out of
// poisoned pools: Infer must still equal Forward bit for bit, and
// InferBatchQ8 must equal its own output on a clean pool (two GCs empty
// every sync.Pool, so its scratch is freshly zeroed).
func TestInferPoisonedPoolMatchesForward(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	model := riccLikeStack(t, r)
	for _, n := range []int{1, 2, 7} {
		x := tensor.New(n, 3, 16, 16)
		for i := range x.Data {
			x.Data[i] = float32(r.Float64())
		}
		want := model.Forward(x)
		runtime.GC()
		runtime.GC()
		cleanQ8 := model.InferBatchQ8(x).Clone()
		for pass := 0; pass < 3; pass++ {
			poisonPools()
			got := model.Infer(x)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("n=%d pass %d: Infer[%d]=%g, Forward=%g (want bit-identical)",
						n, pass, i, got.Data[i], want.Data[i])
				}
			}
			tensor.Put(got)
			poisonPools()
			gotQ8 := model.InferBatchQ8(x)
			for i := range cleanQ8.Data {
				if math.Float32bits(gotQ8.Data[i]) != math.Float32bits(cleanQ8.Data[i]) {
					t.Fatalf("n=%d pass %d: InferBatchQ8[%d]=%g, clean pool %g (want bit-identical)",
						n, pass, i, gotQ8.Data[i], cleanQ8.Data[i])
				}
			}
			tensor.Put(gotQ8)
		}
	}
}
