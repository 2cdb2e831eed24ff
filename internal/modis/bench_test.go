package modis_test

import (
	"testing"

	"github.com/eoml/eoml/internal/modis"
)

func BenchmarkGranuleGenerate(b *testing.B) {
	gen, err := modis.NewGenerator(8)
	if err != nil {
		b.Fatal(err)
	}
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(modis.MOD021KM, g); err != nil {
			b.Fatal(err)
		}
	}
}
