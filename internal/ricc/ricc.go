// Package ricc implements Rotationally Invariant Cloud Clustering: a
// convolutional autoencoder whose latent space is trained to be invariant
// to 90° tile rotations, paired with agglomerative clustering of the
// latent vectors (package cluster42) to define AICCA cloud classes.
//
// The original RICC (Kurihana et al., TGRS 2021) trains on ~1M MODIS
// tiles in TensorFlow; this reproduction trains a scaled-down model on
// synthetic tiles with the same structural ingredients: a conv
// encoder/decoder, a reconstruction loss, and a rotation-invariance
// penalty that pulls embeddings of rotated copies together. Inference —
// encode a tile, assign the nearest cluster centroid — is the code path
// the workflow's stage 4 exercises.
package ricc

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/eoml/eoml/internal/nn"
	"github.com/eoml/eoml/internal/tensor"
	"github.com/eoml/eoml/internal/tile"
)

// Config describes the autoencoder and its training.
type Config struct {
	TileSize  int     // tile edge in pixels; must be divisible by 4
	Channels  int     // input channels (6 for AICCA band selection)
	LatentDim int     // embedding width
	Beta      float64 // rotation-invariance penalty weight (0 disables)
	LR        float64 // Adam learning rate
	Epochs    int
	BatchSize int
	Rotations int   // rotated copies per batch, 0..3
	Seed      int64 // weight init and shuffling seed
}

// DefaultConfig returns the configuration used by the workflow at
// container scale (16×16×6 tiles).
func DefaultConfig() Config {
	return Config{
		TileSize:  16,
		Channels:  6,
		LatentDim: 32,
		Beta:      0.5,
		LR:        1e-3,
		Epochs:    8,
		BatchSize: 32,
		Rotations: 3,
		Seed:      1,
	}
}

func (c Config) validate() error {
	if c.TileSize < 4 || c.TileSize%4 != 0 {
		return fmt.Errorf("ricc: tile size %d must be a positive multiple of 4", c.TileSize)
	}
	if c.Channels <= 0 || c.LatentDim <= 0 || c.BatchSize <= 0 {
		return fmt.Errorf("ricc: non-positive dimension in config %+v", c)
	}
	if c.Rotations < 0 || c.Rotations > 3 {
		return fmt.Errorf("ricc: rotations %d out of range [0,3]", c.Rotations)
	}
	return nil
}

// Model is the rotation-invariant autoencoder.
type Model struct {
	Cfg     Config
	Norm    *Normalizer
	encoder *nn.Sequential
	decoder *nn.Sequential
}

// NewModel builds an untrained model with deterministic initialization.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ts, ch := cfg.TileSize, cfg.Channels
	const c1, c2 = 16, 32
	q := ts / 4 // spatial size after two stride-2 convs

	e1, err := nn.NewConv2D("enc.c1", ch, c1, 3, 2, 1, ts, ts, rng)
	if err != nil {
		return nil, err
	}
	e2, err := nn.NewConv2D("enc.c2", c1, c2, 3, 2, 1, ts/2, ts/2, rng)
	if err != nil {
		return nil, err
	}
	encoder := nn.NewSequential("encoder",
		e1, nn.NewLeakyReLU("enc.a1", 0.1),
		e2, nn.NewLeakyReLU("enc.a2", 0.1),
		nn.NewFlatten("enc.flat"),
		nn.NewDense("enc.latent", c2*q*q, cfg.LatentDim, rng),
	)

	d1, err := nn.NewConv2D("dec.c1", c2, c1, 3, 1, 1, ts/2, ts/2, rng)
	if err != nil {
		return nil, err
	}
	d2, err := nn.NewConv2D("dec.c2", c1, ch, 3, 1, 1, ts, ts, rng)
	if err != nil {
		return nil, err
	}
	decoder := nn.NewSequential("decoder",
		nn.NewDense("dec.expand", cfg.LatentDim, c2*q*q, rng),
		nn.NewLeakyReLU("dec.a0", 0.1),
		nn.NewReshape4D("dec.reshape", c2, q, q),
		nn.NewUpsample2x("dec.up1"),
		d1, nn.NewLeakyReLU("dec.a1", 0.1),
		nn.NewUpsample2x("dec.up2"),
		d2, nn.NewSigmoid("dec.out"),
	)
	return &Model{Cfg: cfg, encoder: encoder, decoder: decoder}, nil
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	return append(m.encoder.Params(), m.decoder.Params()...)
}

// Normalizer rescales tile radiances to [0, 1] per band using the range
// observed in the training set.
type Normalizer struct {
	Min, Max []float32 // per band
}

// FitNormalizer computes per-band ranges over a tile set.
func FitNormalizer(tiles []*tile.Tile) (*Normalizer, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("ricc: no tiles to fit normalizer")
	}
	nb := len(tiles[0].Bands)
	n := &Normalizer{Min: make([]float32, nb), Max: make([]float32, nb)}
	for b := 0; b < nb; b++ {
		n.Min[b] = float32(1e30)
		n.Max[b] = float32(-1e30)
	}
	for _, t := range tiles {
		if len(t.Bands) != nb {
			return nil, fmt.Errorf("ricc: tile band count %d, want %d", len(t.Bands), nb)
		}
		npix := t.TileSize * t.TileSize
		for b := 0; b < nb; b++ {
			for _, v := range t.Data[b*npix : (b+1)*npix] {
				if v < n.Min[b] {
					n.Min[b] = v
				}
				if v > n.Max[b] {
					n.Max[b] = v
				}
			}
		}
	}
	for b := 0; b < nb; b++ {
		if n.Max[b] <= n.Min[b] {
			n.Max[b] = n.Min[b] + 1 // degenerate band: map to 0
		}
	}
	return n, nil
}

// apply normalizes one raw value of band b.
func (n *Normalizer) apply(b int, v float32) float32 {
	return (v - n.Min[b]) / (n.Max[b] - n.Min[b])
}

// TilesToTensor packs tiles into an NCHW batch tensor, normalized to
// [0, 1].
func TilesToTensor(tiles []*tile.Tile, norm *Normalizer) (*tensor.T, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("ricc: empty tile batch")
	}
	nb, ts := len(tiles[0].Bands), tiles[0].TileSize
	out := tensor.New(len(tiles), nb, ts, ts)
	if err := fillTileTensor(out, tiles, norm); err != nil {
		return nil, err
	}
	return out, nil
}

// fillTileTensor packs tiles into dst, which must have shape
// [len(tiles), nb, ts, ts]. Every element is written, so dirty
// pooled buffers are fine.
func fillTileTensor(dst *tensor.T, tiles []*tile.Tile, norm *Normalizer) error {
	nb, ts := dst.Shape[1], dst.Shape[2]
	npix := ts * ts
	for i, t := range tiles {
		if len(t.Bands) != nb || t.TileSize != ts {
			return fmt.Errorf("ricc: heterogeneous tile %d in batch", i)
		}
		row := dst.Data[i*nb*npix : (i+1)*nb*npix]
		for b := 0; b < nb; b++ {
			for p, v := range t.Data[b*npix : (b+1)*npix] {
				row[b*npix+p] = norm.apply(b, v)
			}
		}
	}
	return nil
}

// EpochStats records per-epoch training losses.
type EpochStats struct {
	Epoch          int
	Reconstruction float64
	Invariance     float64
}

// Train fits the autoencoder on tiles. It fits the normalizer as a side
// effect and returns per-epoch loss history.
func (m *Model) Train(tiles []*tile.Tile) ([]EpochStats, error) {
	if len(tiles) < 2 {
		return nil, fmt.Errorf("ricc: need at least 2 training tiles, have %d", len(tiles))
	}
	norm, err := FitNormalizer(tiles)
	if err != nil {
		return nil, err
	}
	m.Norm = norm

	rng := rand.New(rand.NewSource(m.Cfg.Seed + 1))
	opt := nn.NewAdam(m.Cfg.LR)
	params := m.Params()
	var history []EpochStats

	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		perm := rng.Perm(len(tiles))
		var recSum, invSum float64
		batches := 0
		for start := 0; start < len(perm); start += m.Cfg.BatchSize {
			end := start + m.Cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			batch := make([]*tile.Tile, 0, end-start)
			for _, idx := range perm[start:end] {
				batch = append(batch, tiles[idx])
			}
			x, err := TilesToTensor(batch, norm)
			if err != nil {
				return nil, err
			}

			nn.ZeroGrad(params)

			// Reconstruction pass.
			z := m.encoder.Forward(x)
			y := m.decoder.Forward(z)
			rec, grad := nn.MSELoss(y, x)
			gz := m.decoder.Backward(grad)
			m.encoder.Backward(gz)
			zRef := z.Clone() // stop-gradient target for the invariance passes

			// Rotation-invariance passes: pull embeddings of rotated
			// copies toward the canonical embedding.
			var inv float64
			if m.Cfg.Beta > 0 {
				for r := 1; r <= m.Cfg.Rotations; r++ {
					zr := m.encoder.Forward(tensor.Rot90(x, r))
					li, gzr := nn.EmbeddingMatchLoss(zr, zRef, m.Cfg.Beta)
					inv += li
					m.encoder.Backward(gzr)
				}
			}

			opt.Step(params)
			recSum += rec
			invSum += inv
			batches++
		}
		history = append(history, EpochStats{
			Epoch:          epoch,
			Reconstruction: recSum / float64(batches),
			Invariance:     invSum / float64(batches),
		})
	}
	return history, nil
}

// encodeWith is the shared encode core: pack tiles into pooled
// buffers in bounded batches, run the encoder through the given
// inference step (the float batch-GEMM path or the int8 path), and copy
// the latent rows out into one caller-owned backing slab (one
// allocation for the whole call).
func (m *Model) encodeWith(tiles []*tile.Tile, infer func(*tensor.T) *tensor.T) ([][]float32, error) {
	if m.Norm == nil {
		return nil, fmt.Errorf("ricc: model has no normalizer; train or load first")
	}
	d := m.Cfg.LatentDim
	out := make([][]float32, len(tiles))
	backing := make([]float32, len(tiles)*d)
	// Encode in bounded batches to cap peak memory.
	const maxBatch = 256
	for start := 0; start < len(tiles); start += maxBatch {
		end := start + maxBatch
		if end > len(tiles) {
			end = len(tiles)
		}
		n := end - start
		nb, ts := len(tiles[start].Bands), tiles[start].TileSize
		if nb != m.Cfg.Channels || ts != m.Cfg.TileSize {
			return nil, fmt.Errorf("ricc: %d-band %d×%d tiles, model takes %d-band %d×%d",
				nb, ts, ts, m.Cfg.Channels, m.Cfg.TileSize, m.Cfg.TileSize)
		}
		x := tensor.Get(n, nb, ts, ts)
		if err := fillTileTensor(x, tiles[start:end], m.Norm); err != nil {
			tensor.Put(x)
			return nil, err
		}
		z := infer(x)
		copy(backing[start*d:end*d], z.Data[:n*d])
		tensor.Put(z)
		tensor.Put(x)
		for i := start; i < end; i++ {
			out[i] = backing[i*d : (i+1)*d : (i+1)*d]
		}
	}
	return out, nil
}

// EncodeBatch maps tiles to latent vectors using the trained model: the
// whole batch goes through one blocked GEMM per layer (nn.Infer),
// with input packing, the im2col matrix, and activations all recycled
// through tensor.Get/Put. Concurrent calls are safe. The returned rows
// are packed into one backing slab owned by the caller.
func (m *Model) EncodeBatch(tiles []*tile.Tile) ([][]float32, error) {
	return m.encodeWith(tiles, m.encoder.Infer)
}

// EncodeBatchQ8 is EncodeBatch through the symmetric int8 inference
// path: per-output-channel quantized weights (cached on the layers),
// per-tensor quantized activations, int8×int8→int32 GEMMs. The float
// EncodeBatch is the accuracy oracle; the aicca property tests pin the
// label-flip rate and a latent cosine-similarity floor between the two.
// Output is bit-exactly reproducible run to run.
func (m *Model) EncodeBatchQ8(tiles []*tile.Tile) ([][]float32, error) {
	return m.encodeWith(tiles, m.encoder.InferBatchQ8)
}

// EncodeNoArena is the reference implementation of EncodeBatch with no
// buffer reuse: the stateful Forward path plus one fresh row copy per
// tile. It is the oracle the pooled path is tested against and the
// baseline BenchmarkEncodeArena measures allocation savings from.
func (m *Model) EncodeNoArena(tiles []*tile.Tile) ([][]float32, error) {
	if m.Norm == nil {
		return nil, fmt.Errorf("ricc: model has no normalizer; train or load first")
	}
	out := make([][]float32, 0, len(tiles))
	const maxBatch = 256
	for start := 0; start < len(tiles); start += maxBatch {
		end := start + maxBatch
		if end > len(tiles) {
			end = len(tiles)
		}
		x, err := TilesToTensor(tiles[start:end], m.Norm)
		if err != nil {
			return nil, err
		}
		z := m.encoder.Forward(x)
		for i := 0; i < z.Shape[0]; i++ {
			row := make([]float32, m.Cfg.LatentDim)
			copy(row, z.Data[i*m.Cfg.LatentDim:(i+1)*m.Cfg.LatentDim])
			out = append(out, row)
		}
	}
	return out, nil
}

// Reconstruct runs the full autoencoder on tiles, returning the decoder
// output batch (used by diagnostics and examples).
func (m *Model) Reconstruct(tiles []*tile.Tile) (*tensor.T, error) {
	if m.Norm == nil {
		return nil, fmt.Errorf("ricc: model has no normalizer; train or load first")
	}
	x, err := TilesToTensor(tiles, m.Norm)
	if err != nil {
		return nil, err
	}
	z := m.encoder.Infer(x)
	y := m.decoder.Infer(z)
	tensor.Put(z)
	out := y.Clone() // hand the caller its own buffer, recycle the pool's
	tensor.Put(y)
	return out, nil
}

// InvarianceError measures how far embeddings move under 90° rotation:
// mean over tiles and rotations of ‖z_rot − z‖ / (‖z‖ + ε). Lower is more
// invariant; the rotation-loss ablation compares trained models with and
// without Beta.
func (m *Model) InvarianceError(tiles []*tile.Tile) (float64, error) {
	if m.Norm == nil {
		return 0, fmt.Errorf("ricc: model has no normalizer; train or load first")
	}
	x, err := TilesToTensor(tiles, m.Norm)
	if err != nil {
		return 0, err
	}
	z := m.encoder.Infer(x)
	n, d := z.Shape[0], z.Shape[1]
	var total float64
	count := 0
	for r := 1; r <= 3; r++ {
		zr := m.encoder.Infer(tensor.Rot90(x, r))
		for i := 0; i < n; i++ {
			var diff, norm float64
			for j := 0; j < d; j++ {
				dv := float64(zr.Data[i*d+j] - z.Data[i*d+j])
				diff += dv * dv
				nv := float64(z.Data[i*d+j])
				norm += nv * nv
			}
			total += math.Sqrt(diff) / (math.Sqrt(norm) + 1e-9)
			count++
		}
		tensor.Put(zr)
	}
	tensor.Put(z)
	return total / float64(count), nil
}
