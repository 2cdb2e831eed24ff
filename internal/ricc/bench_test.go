package ricc_test

import (
	"math/rand"
	"testing"

	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

// benchTiles fabricates n uniform-noise tiles of ts px and nb bands.
func benchTiles(n, ts, nb int, seed int64) []*tile.Tile {
	r := rand.New(rand.NewSource(seed))
	bands := make([]int, nb)
	for b := range bands {
		bands[b] = b
	}
	tiles := make([]*tile.Tile, n)
	for i := range tiles {
		data := make([]float32, nb*ts*ts)
		for j := range data {
			data[j] = float32(r.Float64())
		}
		tiles[i] = &tile.Tile{Data: data, Bands: bands, TileSize: ts, Label: -1}
	}
	return tiles
}

// benchModel trains the RICC-scale model every encode bench runs: 16 px
// tiles of 6 bands into 32 latents, one epoch on the first 64 of 256
// tiles, which it returns with the model.
func benchModel(b *testing.B) (*ricc.Model, []*tile.Tile) {
	b.Helper()
	tiles := benchTiles(256, 16, 6, 9)
	cfg := ricc.Config{
		TileSize: 16, Channels: 6, LatentDim: 32, Beta: 0.5,
		LR: 1e-3, Epochs: 1, BatchSize: 32, Rotations: 1, Seed: 1,
	}
	m, err := ricc.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(tiles[:64]); err != nil {
		b.Fatal(err)
	}
	return m, tiles
}

func BenchmarkRICCEncode(b *testing.B) {
	m, tiles := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.EncodeBatch(tiles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tiles)), "tiles/op")
}

// BenchmarkEncodeArena measures the encode hot path two ways over one
// trained model and tile set: the allocate-everything baseline
// (EncodeNoArena, training Forward kernels) and the production
// pooled batch-GEMM path (EncodeBatch). Buffer reuse must not cost
// wall-clock: pooled ns/op ≤ noarena.
func BenchmarkEncodeArena(b *testing.B) {
	m, tiles := benchModel(b)
	run := func(b *testing.B, encode func([]*tile.Tile) ([][]float32, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encode(tiles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tiles)), "tiles/op")
	}
	b.Run("noarena", func(b *testing.B) { run(b, m.EncodeNoArena) })
	b.Run("pooled", func(b *testing.B) { run(b, m.EncodeBatch) })
}

// BenchmarkEncodeQ8 compares the float32 batch-GEMM encode against the
// int8-quantized path on the RICC-scale model. The accuracy side of the
// trade is pinned separately by the aicca label-flip gate.
func BenchmarkEncodeQ8(b *testing.B) {
	m, tiles := benchModel(b)
	run := func(b *testing.B, encode func([]*tile.Tile) ([][]float32, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encode(tiles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tiles))*float64(b.N)/b.Elapsed().Seconds(), "tiles/s")
	}
	b.Run("float32", func(b *testing.B) { run(b, m.EncodeBatch) })
	b.Run("int8", func(b *testing.B) { run(b, m.EncodeBatchQ8) })
}
