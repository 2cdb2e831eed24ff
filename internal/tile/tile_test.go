package tile

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/tensor"
)

// genTriple generates the three products for one granule at scale 8.
func genTriple(t testing.TB, g modis.GranuleID) (mod02, mod03, mod06 *hdf.File, gen *modis.Generator) {
	t.Helper()
	gen, err := modis.NewGenerator(8)
	if err != nil {
		t.Fatal(err)
	}
	mod02, err = gen.Generate(modis.Product{Satellite: g.Satellite, Kind: modis.L1B}, g)
	if err != nil {
		t.Fatal(err)
	}
	mod03, err = gen.Generate(modis.Product{Satellite: g.Satellite, Kind: modis.Geo}, g)
	if err != nil {
		t.Fatal(err)
	}
	mod06, err = gen.Generate(modis.Product{Satellite: g.Satellite, Kind: modis.Cloud}, g)
	if err != nil {
		t.Fatal(err)
	}
	return mod02, mod03, mod06, gen
}

// findGranule locates a granule with the desired day flag that yields at
// least one tile (day=true) within the first day of 2022.
func findGranule(t testing.TB, wantDay bool) modis.GranuleID {
	t.Helper()
	gen, _ := modis.NewGenerator(8)
	for idx := 0; idx < modis.GranulesPerDay; idx++ {
		g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
		f, err := gen.Generate(modis.MOD021KM, g)
		if err != nil {
			t.Fatal(err)
		}
		flag, _ := f.AttrString("DayNightFlag")
		if (flag == "Day") != wantDay {
			continue
		}
		if !wantDay {
			return g
		}
		// For day granules also require some kept tiles so tests have
		// material to work with.
		mod02, mod03, mod06, gen := genTriple(t, g)
		res, err := Extract(mod02, mod03, mod06, Options{TileSize: gen.TilePixels()})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tiles) >= 3 {
			return g
		}
	}
	t.Fatalf("no suitable granule found (wantDay=%v)", wantDay)
	return modis.GranuleID{}
}

func TestExtractKeepsOnlyOceanCloudTiles(t *testing.T) {
	g := findGranule(t, true)
	mod02, mod03, mod06, gen := genTriple(t, g)
	ts := gen.TilePixels()
	res, err := Extract(mod02, mod03, mod06, Options{TileSize: ts})
	if err != nil {
		t.Fatal(err)
	}
	ny, nx := gen.Dims()
	if res.Stats.GridRows != ny/ts || res.Stats.GridCols != nx/ts {
		t.Fatalf("grid %dx%d, want %dx%d", res.Stats.GridRows, res.Stats.GridCols, ny/ts, nx/ts)
	}
	sum := res.Stats.Kept + res.Stats.RejectedLand + res.Stats.RejectedCloud + res.Stats.RejectedFill
	if sum != res.Stats.Candidates {
		t.Fatalf("stats don't partition candidates: %+v", res.Stats)
	}
	if res.Stats.Kept == 0 {
		t.Fatal("no tiles kept from a day granule")
	}

	// Verify the invariants directly against the source masks.
	landD, _ := mod03.Dataset("LandSeaMask")
	land, _ := landD.Uint8s()
	cloudD, _ := mod06.Dataset("Cloud_Mask_1km")
	cloud, _ := cloudD.Uint8s()
	for _, tl := range res.Tiles {
		if tl.Label != -1 {
			t.Fatalf("fresh tile has label %d", tl.Label)
		}
		if tl.CloudFrac < 0.3 {
			t.Fatalf("kept tile with cloud fraction %v", tl.CloudFrac)
		}
		cloudy := 0
		for y := tl.Row * ts; y < (tl.Row+1)*ts; y++ {
			for x := tl.Col * ts; x < (tl.Col+1)*ts; x++ {
				if land[y*nx+x] != 0 {
					t.Fatalf("tile (%d,%d) contains land", tl.Row, tl.Col)
				}
				if cloud[y*nx+x] != 0 {
					cloudy++
				}
			}
		}
		if got := float32(cloudy) / float32(ts*ts); math.Abs(float64(got-tl.CloudFrac)) > 1e-6 {
			t.Fatalf("cloud fraction mismatch: %v vs %v", got, tl.CloudFrac)
		}
		if len(tl.Data) != len(modis.AICCABands)*ts*ts {
			t.Fatalf("data length %d", len(tl.Data))
		}
		for i, v := range tl.Data {
			if math.IsNaN(float64(v)) || v < 0 || v > 70 {
				t.Fatalf("implausible radiance %v at %d", v, i)
			}
		}
	}
}

func TestExtractNightGranuleRejectsFill(t *testing.T) {
	g := findGranule(t, false)
	mod02, mod03, mod06, gen := genTriple(t, g)
	res, err := Extract(mod02, mod03, mod06, Options{TileSize: gen.TilePixels()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tiles) != 0 {
		t.Fatalf("night granule yielded %d tiles (reflective bands are fill)", len(res.Tiles))
	}
	if res.Stats.RejectedFill == 0 && res.Stats.RejectedLand+res.Stats.RejectedCloud != res.Stats.Candidates {
		t.Fatalf("night rejections unaccounted: %+v", res.Stats)
	}
}

func TestExtractThermalBandsWorkAtNight(t *testing.T) {
	// Selecting only thermal bands (>= 20) must yield tiles even at night.
	g := findGranule(t, false)
	mod02, mod03, mod06, gen := genTriple(t, g)
	res, err := Extract(mod02, mod03, mod06, Options{
		TileSize: gen.TilePixels(),
		Bands:    []int{27, 28, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RejectedFill != 0 {
		t.Fatalf("thermal-only selection rejected %d tiles for fill", res.Stats.RejectedFill)
	}
}

func TestExtractGranuleMismatchRejected(t *testing.T) {
	gA := findGranule(t, true)
	gB := modis.GranuleID{Satellite: gA.Satellite, Year: gA.Year, DOY: gA.DOY, Index: (gA.Index + 1) % modis.GranulesPerDay}
	mod02, mod03, _, _ := genTriple(t, gA)
	_, _, mod06B, _ := genTriple(t, gB)
	if _, err := Extract(mod02, mod03, mod06B, Options{TileSize: 16}); err == nil {
		t.Fatal("mismatched granules accepted")
	}
}

func TestExtractValidation(t *testing.T) {
	g := findGranule(t, true)
	mod02, mod03, mod06, gen := genTriple(t, g)
	if _, err := Extract(mod02, mod03, mod06, Options{TileSize: 10_000}); err == nil {
		t.Fatal("oversized tile accepted")
	}
	if _, err := Extract(mod02, mod03, mod06, Options{TileSize: gen.TilePixels(), Bands: []int{99}}); err == nil {
		t.Fatal("out-of-range band accepted")
	}
	if _, err := Extract(mod03, mod03, mod06, Options{TileSize: gen.TilePixels()}); err == nil {
		t.Fatal("MOD03 passed as MOD02 accepted")
	}
}

func TestNetCDFRoundTrip(t *testing.T) {
	g := findGranule(t, true)
	mod02, mod03, mod06, gen := genTriple(t, g)
	res, err := Extract(mod02, mod03, mod06, Options{TileSize: gen.TilePixels()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiles.nc")
	if err := WriteNetCDF(path, res.Tiles); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetCDF(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Tiles) {
		t.Fatalf("tile count %d vs %d", len(back), len(res.Tiles))
	}
	for i := range back {
		a, b := res.Tiles[i], back[i]
		if a.Row != b.Row || a.Col != b.Col || a.Lat != b.Lat || a.Lon != b.Lon {
			t.Fatalf("tile %d identity mismatch", i)
		}
		if !reflect.DeepEqual(a.Data, b.Data) {
			t.Fatalf("tile %d radiances differ", i)
		}
		if a.CloudFrac != b.CloudFrac || a.MeanCTP != b.MeanCTP || a.IcePhaseFrac != b.IcePhaseFrac {
			t.Fatalf("tile %d cloud stats differ", i)
		}
		if b.Label != -1 {
			t.Fatalf("tile %d label = %d", i, b.Label)
		}
		if !reflect.DeepEqual(b.Bands, modis.AICCABands) {
			t.Fatalf("tile %d bands = %v", i, b.Bands)
		}
	}
}

func TestAppendLabels(t *testing.T) {
	g := findGranule(t, true)
	mod02, mod03, mod06, gen := genTriple(t, g)
	res, err := Extract(mod02, mod03, mod06, Options{TileSize: gen.TilePixels()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiles.nc")
	if err := WriteNetCDF(path, res.Tiles); err != nil {
		t.Fatal(err)
	}
	labels := make([]int16, len(res.Tiles))
	for i := range labels {
		labels[i] = int16(i % 42)
	}
	if err := AppendLabels(path, labels); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetCDF(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, tl := range back {
		if tl.Label != int16(i%42) {
			t.Fatalf("label[%d] = %d", i, tl.Label)
		}
		// Radiances must be untouched by the label rewrite.
		if !reflect.DeepEqual(tl.Data, res.Tiles[i].Data) {
			t.Fatalf("tile %d radiances changed by label append", i)
		}
	}
	// Wrong label count must fail.
	if err := AppendLabels(path, labels[:1]); err == nil && len(labels) != 1 {
		t.Fatal("short label vector accepted")
	}
}

func TestToNetCDFRejectsEmptyAndMixed(t *testing.T) {
	if _, err := ToNetCDF(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	a := &Tile{Bands: []int{1, 2}, TileSize: 4, Data: make([]float32, 32)}
	b := &Tile{Bands: []int{1}, TileSize: 4, Data: make([]float32, 16)}
	if _, err := ToNetCDF([]*Tile{a, b}); err == nil {
		t.Fatal("mixed band counts accepted")
	}
}

// Property: pixel conservation — every kept tile's radiance values match
// the source swath exactly (after scale/offset), for random tile geometry.
func TestExtractPixelConservationProperty(t *testing.T) {
	g := findGranule(t, true)
	mod02, mod03, mod06, gen := genTriple(t, g)
	radD, _ := mod02.Dataset("EV_1KM_RefSB")
	radVals, _ := radD.Uint16s()
	_, nx := gen.Dims()
	ny := radD.Dims[1]
	scale, _ := mod02.AttrFloat("radiance_scale")

	prop := func(tsRaw uint8, bandRaw uint8) bool {
		ts := int(tsRaw)%24 + 4
		band := int(bandRaw) % 20 // reflective bands only (day granule)
		res, err := Extract(mod02, mod03, mod06, Options{TileSize: ts, Bands: []int{band}})
		if err != nil {
			return false
		}
		for _, tl := range res.Tiles {
			for y := 0; y < ts; y++ {
				for x := 0; x < ts; x++ {
					src := band*ny*nx + (tl.Row*ts+y)*nx + tl.Col*ts + x
					want := float32(float64(radVals[src]) * scale)
					if tl.Data[y*ts+x] != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestExtractArenaMatchesPlain pins the deprecated Options.Arena as
// inert: with it set, Extract returns bit-identical tiles and stats, on
// a day granule and on a night granule whose fill rejection runs
// through the NaN test.
func TestExtractArenaMatchesPlain(t *testing.T) {
	arena := tensor.NewShardedArena()
	for _, wantDay := range []bool{true, false} {
		g := findGranule(t, wantDay)
		mod02, mod03, mod06, gen := genTriple(t, g)
		plain, err := Extract(mod02, mod03, mod06, Options{TileSize: gen.TilePixels()})
		if err != nil {
			t.Fatal(err)
		}
		withArena, err := Extract(mod02, mod03, mod06, Options{TileSize: gen.TilePixels(), Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("day=%v", wantDay), withArena, plain)
	}
}
