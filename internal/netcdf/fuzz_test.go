package netcdf

import (
	"bytes"
	"testing"
)

// fuzzSeedFile encodes a small file with the tile NetCDF layout — the
// tile/band/y/x dimensions, a radiance cube, per-tile float, int and
// short variables, and text, int and short attributes — so the fuzzer
// mutates the shape of the files the pipeline actually reads.
func fuzzSeedFile(t testing.TB) []byte {
	f := New()
	for _, d := range []Dim{{"tile", 2}, {"band", 2}, {"y", 2}, {"x", 2}} {
		if err := f.AddDim(d.Name, d.Len); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Attrs.SetString("granule", "MOD021KM.A2024001.0000"))
	must(f.Attrs.SetInts("bands", 6, 7))
	rad, err := f.AddFloat("radiance", []string{"tile", "band", "y", "x"},
		[]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	must(err)
	must(rad.Attrs.SetString("units", "W/m^2/um/sr"))
	_, err = f.AddFloat("latitude", []string{"tile"}, []float32{-10, 10})
	must(err)
	_, err = f.AddInt("tile_row", []string{"tile"}, []int32{0, 1})
	must(err)
	label, err := f.AddShort("label", []string{"tile"}, []int16{-1, 41})
	must(err)
	must(label.Attrs.SetShorts("_FillValue", -1))
	data, err := Encode(f)
	must(err)
	return data
}

// FuzzDecode drives the NetCDF reader with arbitrary bytes. Tile files
// reach it from the shared tile directory, where any writer may drop
// one, so Decode must never panic and must not trust a header's lengths
// before bounds-checking them. Any stream Decode accepts must also
// survive an Encode → Decode round trip.
func FuzzDecode(f *testing.F) {
	valid := fuzzSeedFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-data
	f.Add(valid[:8])            // magic and numrecs only
	f.Add([]byte{})
	const big = 1 << 16
	f.Add(classicFile([]uint32{big, big, big, big}, Byte, 0)) // element count wraps
	f.Add(classicFile([]uint32{1 << 31, 1 << 31}, Double, 0)) // byte count wraps
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Encode(decoded)
		if err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		redecoded, err := Decode(again)
		if err != nil {
			t.Fatalf("re-decode of re-encoded stream failed: %v", err)
		}
		final, err := Encode(redecoded)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(again, final) {
			t.Fatal("Encode ∘ Decode is not a fixed point on an accepted stream")
		}
	})
}
