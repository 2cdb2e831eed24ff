package ricc

import (
	"math"
	"math/rand"
	"testing"
)

// TestEncodeBatchMatchesPerTile is the batch-GEMM equivalence property
// test: for random model shapes and batch sizes — including N=1 and N
// not a multiple of the GEMM register block — EncodeBatch over the
// whole set must match encoding each tile by itself within 1e-6
// relative.
func TestEncodeBatchMatchesPerTile(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []struct {
		ts, ch, latent, n int
	}{
		{8, 2, 8, 1},    // N=1: the degenerate batch
		{8, 3, 16, 5},   // odd N, below any block multiple
		{16, 6, 32, 13}, // production shape, N not a multiple of the block
		{16, 1, 4, 37},
		{12, 4, 24, 30},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.TileSize, cfg.Channels, cfg.LatentDim = tc.ts, tc.ch, tc.latent
		cfg.Seed = int64(tc.ts*1000 + tc.n)
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tiles := syntheticTiles(tc.n, tc.ts, tc.ch, r.Int63())
		if m.Norm, err = FitNormalizer(tiles); err != nil {
			t.Fatal(err)
		}

		batched, err := m.EncodeBatch(tiles)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tiles {
			single, err := m.EncodeBatch(tiles[i : i+1])
			if err != nil {
				t.Fatal(err)
			}
			for j := range single[0] {
				want, got := float64(single[0][j]), float64(batched[i][j])
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("case %+v tile %d dim %d: batched %g vs per-tile %g", tc, i, j, got, want)
				}
			}
		}
	}
}
