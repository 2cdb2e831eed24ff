// Package aicca produces the AI-driven Cloud Classification Atlas labels:
// it couples a trained RICC encoder with the fixed 42-class centroid
// codebook to assign a cloud class to every ocean-cloud tile, and
// aggregates per-class physical statistics from the MOD06-derived tile
// properties — the association between AICCA classes and cloud physics
// that the atlas publishes.
package aicca

import (
	"fmt"
	"math"
	"sort"

	"github.com/eoml/eoml/internal/cluster42"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

// NumClasses re-exports the AICCA class count.
const NumClasses = cluster42.NumClasses

// Labeler assigns AICCA classes to tiles.
type Labeler struct {
	Model    *ricc.Model
	Codebook *ricc.Codebook
	// Precision selects the encode arithmetic; zero value (or
	// PrecisionFloat32) is the full-precision path, PrecisionInt8 the
	// quantized one.
	Precision Precision
}

// NewLabeler validates and wraps a trained model and codebook.
func NewLabeler(m *ricc.Model, cb *ricc.Codebook) (*Labeler, error) {
	if m == nil || m.Norm == nil {
		return nil, fmt.Errorf("aicca: labeler needs a trained model")
	}
	if cb == nil || len(cb.Centroids) == 0 {
		return nil, fmt.Errorf("aicca: labeler needs a non-empty codebook")
	}
	if len(cb.Centroids[0]) != m.Cfg.LatentDim {
		return nil, fmt.Errorf("aicca: codebook dim %d != model latent %d", len(cb.Centroids[0]), m.Cfg.LatentDim)
	}
	return &Labeler{Model: m, Codebook: cb}, nil
}

// Train builds a Labeler from scratch: fit the RICC autoencoder on the
// training tiles, encode them, and cluster the latents into k classes.
// This is the paper's "RICC training" + "cluster evaluation" stages.
func Train(tiles []*tile.Tile, cfg ricc.Config, k int) (*Labeler, *cluster42.Result, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("aicca: k must be positive")
	}
	if len(tiles) < k {
		return nil, nil, fmt.Errorf("aicca: %d training tiles for %d classes", len(tiles), k)
	}
	m, err := ricc.NewModel(cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := m.Train(tiles); err != nil {
		return nil, nil, err
	}
	latents, err := m.EncodeBatch(tiles)
	if err != nil {
		return nil, nil, err
	}
	cb, res, err := ricc.BuildCodebook(latents, k)
	if err != nil {
		return nil, nil, err
	}
	l, err := NewLabeler(m, cb)
	if err != nil {
		return nil, nil, err
	}
	return l, res, nil
}

// encode runs the batch encode in the labeler's configured precision.
func (l *Labeler) encode(tiles []*tile.Tile) ([][]float32, error) {
	if l.Precision == PrecisionInt8 {
		return l.Model.EncodeBatchQ8(tiles)
	}
	return l.Model.EncodeBatch(tiles)
}

// LabelTiles assigns classes to tiles in place and returns the labels.
// Encoding goes through the batch-GEMM path (float32 or int8 per the
// Precision field), so a BatchLabeler flush that packed tiles from
// several files runs one blocked matmul per layer for the whole pack.
func (l *Labeler) LabelTiles(tiles []*tile.Tile) ([]int16, error) {
	if len(tiles) == 0 {
		return nil, nil
	}
	latents, err := l.encode(tiles)
	if err != nil {
		return nil, err
	}
	classes, err := l.Codebook.Assign(latents)
	if err != nil {
		return nil, err
	}
	labels := make([]int16, len(tiles))
	for i, c := range classes {
		labels[i] = int16(c)
		tiles[i].Label = int16(c)
	}
	return labels, nil
}

// LabelFile reads a tile NetCDF, labels its tiles, and rewrites the file
// with the labels appended — one inference Flow action of the paper's
// stage 4. It returns the number of tiles labeled.
func (l *Labeler) LabelFile(path string) (int, error) {
	tiles, err := tile.ReadNetCDF(path)
	if err != nil {
		return 0, err
	}
	labels, err := l.LabelTiles(tiles)
	if err != nil {
		return 0, err
	}
	if len(labels) == 0 {
		return 0, nil
	}
	if err := tile.AppendLabels(path, labels); err != nil {
		return 0, err
	}
	return len(labels), nil
}

// ClassStats summarizes one AICCA class over a labeled tile population.
type ClassStats struct {
	Class                int
	Count                int
	MeanCloudTopPressure float64
	MeanOpticalThickness float64
	MeanEffectiveRadius  float64
	MeanCloudFraction    float64
	IceFraction          float64
}

// GeoCell is one latitude/longitude cell of a class-occurrence map.
type GeoCell struct {
	LatMin, LonMin float64 // cell lower-left corner, degrees
	Counts         map[int]int
	Total          int
}

// GeoHistogram grids labeled tiles into cellDeg × cellDeg cells and
// counts class occurrences per cell — the spatial association AICCA
// publishes (e.g. stratocumulus classes concentrating in the eastern
// subtropical ocean basins). Unlabeled tiles are skipped. Cells are
// returned sorted south-to-north, then west-to-east.
func GeoHistogram(tiles []*tile.Tile, cellDeg float64) ([]GeoCell, error) {
	if cellDeg <= 0 || cellDeg > 90 {
		return nil, fmt.Errorf("aicca: cell size %v out of (0,90]", cellDeg)
	}
	type key struct{ lat, lon int }
	cells := map[key]*GeoCell{}
	for _, t := range tiles {
		if t.Label < 0 {
			continue
		}
		k := key{
			lat: int(math.Floor(float64(t.Lat) / cellDeg)),
			lon: int(math.Floor(float64(t.Lon) / cellDeg)),
		}
		c, ok := cells[k]
		if !ok {
			c = &GeoCell{
				LatMin: float64(k.lat) * cellDeg,
				LonMin: float64(k.lon) * cellDeg,
				Counts: map[int]int{},
			}
			cells[k] = c
		}
		c.Counts[int(t.Label)]++
		c.Total++
	}
	out := make([]GeoCell, 0, len(cells))
	for _, c := range cells {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LatMin != out[j].LatMin {
			return out[i].LatMin < out[j].LatMin
		}
		return out[i].LonMin < out[j].LonMin
	})
	return out, nil
}

// DominantClass returns the most frequent class in the cell (lowest class
// wins ties) and its share of the cell total.
func (c GeoCell) DominantClass() (class int, share float64) {
	best, bestN := -1, 0
	classes := make([]int, 0, len(c.Counts))
	for cl := range c.Counts {
		classes = append(classes, cl)
	}
	sort.Ints(classes)
	for _, cl := range classes {
		if c.Counts[cl] > bestN {
			best, bestN = cl, c.Counts[cl]
		}
	}
	if c.Total == 0 {
		return -1, 0
	}
	return best, float64(bestN) / float64(c.Total)
}

// Atlas aggregates per-class physical statistics from labeled tiles —
// the class/physics association table that makes AICCA useful for climate
// analysis. Unlabeled tiles (label < 0) are skipped.
func Atlas(tiles []*tile.Tile) []ClassStats {
	byClass := map[int]*ClassStats{}
	for _, t := range tiles {
		if t.Label < 0 {
			continue
		}
		c := int(t.Label)
		st, ok := byClass[c]
		if !ok {
			st = &ClassStats{Class: c}
			byClass[c] = st
		}
		st.Count++
		st.MeanCloudTopPressure += float64(t.MeanCTP)
		st.MeanOpticalThickness += float64(t.MeanCOT)
		st.MeanEffectiveRadius += float64(t.MeanCER)
		st.MeanCloudFraction += float64(t.CloudFrac)
		st.IceFraction += float64(t.IcePhaseFrac)
	}
	out := make([]ClassStats, 0, len(byClass))
	for _, st := range byClass {
		n := float64(st.Count)
		st.MeanCloudTopPressure /= n
		st.MeanOpticalThickness /= n
		st.MeanEffectiveRadius /= n
		st.MeanCloudFraction /= n
		st.IceFraction /= n
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
