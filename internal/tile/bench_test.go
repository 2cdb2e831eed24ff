package tile_test

import (
	"testing"

	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/tile"
)

func BenchmarkTileExtract(b *testing.B) {
	gen, err := modis.NewGenerator(8)
	if err != nil {
		b.Fatal(err)
	}
	// Index 2 is a verified daytime slot on the synthetic Terra orbit.
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 2}
	mod02, err := gen.Generate(modis.MOD021KM, g)
	if err != nil {
		b.Fatal(err)
	}
	mod03, _ := gen.Generate(modis.MOD03, g)
	mod06, _ := gen.Generate(modis.MOD06L2, g)
	opts := tile.Options{TileSize: gen.TilePixels()}
	b.ReportAllocs()
	var tiles int
	for i := 0; i < b.N; i++ {
		res, err := tile.Extract(mod02, mod03, mod06, opts)
		if err != nil {
			b.Fatal(err)
		}
		tiles = len(res.Tiles)
	}
	b.ReportMetric(float64(tiles), "tiles/granule")
}
