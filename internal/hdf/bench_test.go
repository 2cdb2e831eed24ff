package hdf_test

import (
	"testing"

	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/modis"
)

func BenchmarkHDFDecode(b *testing.B) {
	gen, _ := modis.NewGenerator(8)
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 2}
	data, err := gen.GenerateBytes(modis.MOD021KM, g)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hdf.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
