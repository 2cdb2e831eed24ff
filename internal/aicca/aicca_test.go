package aicca

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tensor"
	"github.com/eoml/eoml/internal/tile"
)

// makeTiles fabricates tiles from two visually distinct populations
// (bright compact blobs vs dim broad gradients) with correlated physical
// properties, so clustering has structure to find.
func makeTiles(n int, seed int64) []*tile.Tile {
	r := rand.New(rand.NewSource(seed))
	const ts, nb = 8, 3
	bands := []int{0, 1, 2}
	tiles := make([]*tile.Tile, n)
	for i := range tiles {
		kind := i % 2
		data := make([]float32, nb*ts*ts)
		for b := 0; b < nb; b++ {
			for y := 0; y < ts; y++ {
				for x := 0; x < ts; x++ {
					var v float64
					if kind == 0 {
						dx, dy := float64(x)-4, float64(y)-4
						v = 1.5 * math.Exp(-(dx*dx+dy*dy)/6)
					} else {
						v = 0.2 + 0.05*float64(x+y)/float64(2*ts)
					}
					data[b*ts*ts+y*ts+x] = float32(v + 0.02*r.NormFloat64())
				}
			}
		}
		t := &tile.Tile{
			Granule:   "TEST",
			Row:       i,
			Data:      data,
			Bands:     bands,
			TileSize:  ts,
			Label:     -1,
			CloudFrac: 0.5,
		}
		if kind == 0 {
			t.MeanCTP, t.MeanCOT, t.IcePhaseFrac = 400, 30, 0.8
		} else {
			t.MeanCTP, t.MeanCOT, t.IcePhaseFrac = 900, 5, 0.0
		}
		tiles[i] = t
	}
	return tiles
}

func trainCfg() ricc.Config {
	return ricc.Config{
		TileSize:  8,
		Channels:  3,
		LatentDim: 8,
		Beta:      0.3,
		LR:        2e-3,
		Epochs:    4,
		BatchSize: 16,
		Rotations: 1,
		Seed:      11,
	}
}

func TestTrainAndLabelTiles(t *testing.T) {
	tiles := makeTiles(64, 1)
	labeler, res, err := Train(tiles, trainCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 4 {
		t.Fatalf("K = %d", res.K())
	}
	fresh := makeTiles(20, 2)
	labels, err := labeler.LabelTiles(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 20 {
		t.Fatalf("labels = %d", len(labels))
	}
	for i, l := range labels {
		if l < 0 || int(l) >= 4 {
			t.Fatalf("label[%d] = %d out of range", i, l)
		}
		if fresh[i].Label != l {
			t.Fatalf("tile %d label not set in place", i)
		}
	}
}

func TestLabelSeparatesPopulations(t *testing.T) {
	// The two synthetic populations must not be fused into a single class
	// mapping: tiles of different kinds should mostly get different labels.
	tiles := makeTiles(64, 3)
	labeler, _, err := Train(tiles, trainCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := makeTiles(40, 4)
	labels, err := labeler.LabelTiles(fresh)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < len(fresh); i += 2 {
		if i+1 < len(fresh) && labels[i] != labels[i+1] {
			agree++
		}
	}
	if agree < len(fresh)/2*7/10 {
		t.Fatalf("populations not separated: %d/%d pairs got distinct labels", agree, len(fresh)/2)
	}
}

func TestLabelFileEndToEnd(t *testing.T) {
	tiles := makeTiles(48, 5)
	labeler, _, err := Train(tiles, trainCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiles.nc")
	fresh := makeTiles(12, 6)
	if err := tile.WriteNetCDF(path, fresh); err != nil {
		t.Fatal(err)
	}
	n, err := labeler.LabelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("labeled %d tiles", n)
	}
	back, err := tile.ReadNetCDF(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, tl := range back {
		if tl.Label < 0 || int(tl.Label) >= 3 {
			t.Fatalf("file tile %d label %d", i, tl.Label)
		}
	}
}

func TestNewLabelerValidation(t *testing.T) {
	m, err := ricc.NewModel(trainCfg())
	if err != nil {
		t.Fatal(err)
	}
	cb := &ricc.Codebook{Centroids: [][]float32{{1, 2}}}
	if _, err := NewLabeler(m, cb); err == nil {
		t.Error("untrained model accepted")
	}
	tiles := makeTiles(32, 7)
	if _, err := m.Train(tiles); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLabeler(m, cb); err == nil {
		t.Error("dim-mismatched codebook accepted")
	}
	if _, err := NewLabeler(m, &ricc.Codebook{}); err == nil {
		t.Error("empty codebook accepted")
	}
	if _, err := NewLabeler(nil, cb); err == nil {
		t.Error("nil model accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	tiles := makeTiles(8, 8)
	if _, _, err := Train(tiles, trainCfg(), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := Train(tiles, trainCfg(), 100); err == nil {
		t.Error("k > n accepted")
	}
}

func TestAtlasAggregation(t *testing.T) {
	tiles := makeTiles(20, 9)
	for i, tl := range tiles {
		tl.Label = int16(i % 2)
	}
	// One unlabeled tile must be skipped.
	tiles[0].Label = -1
	stats := Atlas(tiles)
	if len(stats) != 2 {
		t.Fatalf("classes = %d", len(stats))
	}
	if stats[0].Class != 0 || stats[1].Class != 1 {
		t.Fatalf("class order: %+v", stats)
	}
	if stats[0].Count+stats[1].Count != 19 {
		t.Fatalf("counts = %d + %d", stats[0].Count, stats[1].Count)
	}
	// Kind-0 tiles carry CTP 400 and land on even indices = label 0 (after
	// the unlabeled skip the mix shifts, so just check ranges).
	for _, st := range stats {
		if st.MeanCloudTopPressure < 300 || st.MeanCloudTopPressure > 1000 {
			t.Fatalf("CTP = %v", st.MeanCloudTopPressure)
		}
		if st.MeanCloudFraction != 0.5 {
			t.Fatalf("cloud fraction = %v", st.MeanCloudFraction)
		}
	}
	if len(Atlas(nil)) != 0 {
		t.Fatal("empty atlas not empty")
	}
}

func TestLabelTilesEmpty(t *testing.T) {
	tiles := makeTiles(32, 10)
	labeler, _, err := Train(tiles, trainCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := labeler.LabelTiles(nil)
	if err != nil || labels != nil {
		t.Fatalf("empty input: %v, %v", labels, err)
	}
}

// encodeLabelDigestGolden is SHA-256 over the float32 bits of every
// EncodeBatch latent and the int16 of every LabelTiles label in
// TestEncodeLabelDigestPinned, recorded with the axpy-per-row GEMM the
// register-blocked kernel replaced. The pin holds on amd64 with AVX2+FMA,
// where every C element is the same ascending chain of single-rounding
// FMAs under both kernels.
const encodeLabelDigestGolden = "206ad97e1ee1fde73ca014e341189d2c25c097193b25466d339e207f0011a012"

// TestEncodeLabelDigestPinned pins training (MatMul forward, MatMulTA
// weight gradients), the batch encode (MatMulInto per layer) and the
// centroid assignment bit for bit: any reassociation of a GEMM sum moves
// a latent bit and so the digest. The latent width and both conv widths
// are multiples of 16, so every GEMM runs through the register kernel;
// the decoder's 3-channel output conv keeps the ragged-column path.
func TestEncodeLabelDigestPinned(t *testing.T) {
	if !tensor.SIMDEnabled() {
		t.Skip("digest recorded with the AVX2+FMA kernels; the scalar fallback rounds each multiply separately")
	}
	cfg := trainCfg()
	cfg.LatentDim = 32
	labeler, _, err := Train(makeTiles(64, 41), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := makeTiles(58, 42)
	latents, err := labeler.Model.EncodeBatch(fresh)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := labeler.LabelTiles(fresh)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [4]byte
	for _, row := range latents {
		for _, v := range row {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	for _, l := range labels {
		binary.LittleEndian.PutUint16(buf[:2], uint16(l))
		h.Write(buf[:2])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != encodeLabelDigestGolden {
		t.Errorf("encode/label digest drifted:\n got: %s\nwant: %s", got, encodeLabelDigestGolden)
	}
}
