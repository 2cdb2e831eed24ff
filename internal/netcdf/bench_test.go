package netcdf_test

import (
	"testing"

	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/netcdf"
	"github.com/eoml/eoml/internal/tile"
)

// BenchmarkNetCDFRoundTrip times one granule's tiles through the tile
// file format: tile.ToNetCDF, Encode, Decode.
func BenchmarkNetCDFRoundTrip(b *testing.B) {
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
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: gen.TilePixels()})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Tiles) == 0 {
		b.Fatal("no tiles")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := tile.ToNetCDF(res.Tiles)
		if err != nil {
			b.Fatal(err)
		}
		data, err := netcdf.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netcdf.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
