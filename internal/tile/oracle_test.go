package tile

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/modis"
)

// extractEager is the swath-at-a-time extraction Extract replaced, kept
// as its oracle: it decodes every selected band plane, both geolocation
// planes and the four MOD06 property planes in full, then cuts the tiles
// out of those planes.
func extractEager(mod02, mod03, mod06 *hdf.File, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if err := sameGranule(mod02, mod03, mod06); err != nil {
		return nil, err
	}
	rad, err := mod02.Dataset("EV_1KM_RefSB")
	if err != nil {
		return nil, err
	}
	if len(rad.Dims) != 3 {
		return nil, fmt.Errorf("rank %d", len(rad.Dims))
	}
	nbands, ny, nx := rad.Dims[0], rad.Dims[1], rad.Dims[2]
	scale, ok := mod02.AttrFloat("radiance_scale")
	if !ok {
		return nil, fmt.Errorf("no radiance_scale")
	}
	offset, _ := mod02.AttrFloat("radiance_offset")
	fillAttr, ok := mod02.AttrInt("_FillValue")
	if !ok {
		fillAttr = 65535
	}
	fill := uint16(fillAttr)
	for _, b := range o.Bands {
		if b < 0 || b >= nbands {
			return nil, fmt.Errorf("band %d", b)
		}
	}
	plane := ny * nx
	bandVals := make([]float32, len(o.Bands)*plane)
	for bi, b := range o.Bands {
		if err := rad.ScaledPlaneInto(b, scale, offset, fill, bandVals[bi*plane:(bi+1)*plane]); err != nil {
			return nil, err
		}
	}
	mask := func(f *hdf.File, name string) ([]uint8, error) {
		d, err := f.Dataset(name)
		if err != nil {
			return nil, err
		}
		if len(d.Dims) != 2 || d.Dims[0] != ny || d.Dims[1] != nx {
			return nil, fmt.Errorf("%s dims %v", name, d.Dims)
		}
		return d.Uint8s()
	}
	floats := func(f *hdf.File, name string) ([]float32, error) {
		d, err := f.Dataset(name)
		if err != nil {
			return nil, err
		}
		buf := make([]float32, plane)
		return buf, d.Float32sInto(buf)
	}
	land, err := mask(mod03, "LandSeaMask")
	if err != nil {
		return nil, err
	}
	cloud, err := mask(mod06, "Cloud_Mask_1km")
	if err != nil {
		return nil, err
	}
	lats, err := floats(mod03, "Latitude")
	if err != nil {
		return nil, err
	}
	lons, err := floats(mod03, "Longitude")
	if err != nil {
		return nil, err
	}
	var props [4][]float32
	for i, name := range []string{"Cloud_Top_Pressure", "Cloud_Optical_Thickness", "Cloud_Effective_Radius", "Cloud_Water_Path"} {
		if props[i], err = floats(mod06, name); err != nil {
			return nil, err
		}
	}
	phase, err := mask(mod06, "Cloud_Phase_Infrared")
	if err != nil {
		return nil, err
	}
	ts := o.TileSize
	if ts <= 0 || ts > ny || ts > nx {
		return nil, fmt.Errorf("tile size %d", ts)
	}
	rows, cols := ny/ts, nx/ts
	granule, _ := mod02.AttrString("ShortName")
	acq, _ := mod02.AttrString("AcquisitionDate")
	granule = granule + "." + acq
	res := &Result{Stats: Stats{GridRows: rows, GridCols: cols, Candidates: rows * cols}}
	npix := ts * ts
	minCloudPix := int(o.MinCloudFrac * float64(npix))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			y0, x0 := r*ts, c*ts
			allOcean, cloudy := true, 0
			for y := y0; y < y0+ts && allOcean; y++ {
				for x := x0; x < x0+ts; x++ {
					if land[y*nx+x] != 0 {
						allOcean = false
						break
					}
					if cloud[y*nx+x] != 0 {
						cloudy++
					}
				}
			}
			if !allOcean {
				res.Stats.RejectedLand++
				continue
			}
			if cloudy < minCloudPix {
				res.Stats.RejectedCloud++
				continue
			}
			hasFill := false
			for bi := range o.Bands {
				for y := 0; y < ts && !hasFill; y++ {
					for x := 0; x < ts; x++ {
						if v := bandVals[bi*plane+(y0+y)*nx+x0+x]; v != v {
							hasFill = true
							break
						}
					}
				}
			}
			if hasFill {
				res.Stats.RejectedFill++
				continue
			}
			data := make([]float32, len(o.Bands)*npix)
			for bi := range o.Bands {
				for y := 0; y < ts; y++ {
					copy(data[bi*npix+y*ts:bi*npix+(y+1)*ts], bandVals[bi*plane+(y0+y)*nx+x0:])
				}
			}
			center := (y0+ts/2)*nx + x0 + ts/2
			t := &Tile{Granule: granule, Row: r, Col: c, Data: data, Bands: append([]int(nil), o.Bands...),
				TileSize: ts, Lat: lats[center], Lon: lons[center], Label: -1}
			var sums [4]float64
			n, ice := 0, 0
			for y := y0; y < y0+ts; y++ {
				for x := x0; x < x0+ts; x++ {
					i := y*nx + x
					if cloud[i] == 0 {
						continue
					}
					n++
					for p := range sums {
						sums[p] += float64(props[p][i])
					}
					if phase[i] == 2 {
						ice++
					}
				}
			}
			t.CloudFrac = float32(n) / float32(npix)
			if n > 0 {
				t.MeanCTP = float32(sums[0] / float64(n))
				t.MeanCOT = float32(sums[1] / float64(n))
				t.MeanCER = float32(sums[2] / float64(n))
				t.MeanCWP = float32(sums[3] / float64(n))
				t.IcePhaseFrac = float32(ice) / float32(n)
			}
			res.Tiles = append(res.Tiles, t)
		}
	}
	res.Stats.Kept = len(res.Tiles)
	return res, nil
}

// sameResult fails t unless got and want hold equal stats and
// reflect.DeepEqual tiles whose radiances also match bit for bit (NaN
// included, which DeepEqual alone would treat as unequal).
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, oracle %+v", what, got.Stats, want.Stats)
	}
	if len(got.Tiles) != len(want.Tiles) {
		t.Fatalf("%s: %d tiles, oracle %d", what, len(got.Tiles), len(want.Tiles))
	}
	for i := range want.Tiles {
		g, w := got.Tiles[i], want.Tiles[i]
		for j := range w.Data {
			if math.Float32bits(g.Data[j]) != math.Float32bits(w.Data[j]) {
				t.Fatalf("%s: tile %d value %d = %v, oracle %v", what, i, j, g.Data[j], w.Data[j])
			}
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: tile %d = %+v, oracle %+v", what, i, *g, *w)
		}
	}
}

// TestExtractMatchesEagerOracle pins Extract to the eager oracle over 48
// generated granules — both satellites, every stretch of the orbit
// (night, land-heavy and open-ocean day swaths), three tile sizes and
// three cloud thresholds — and requires the set to cover each kind.
func TestExtractMatchesEagerOracle(t *testing.T) {
	gen, err := modis.NewGenerator(8)
	if err != nil {
		t.Fatal(err)
	}
	var night, landHeavy, kept int
	for i := 0; i < 48; i++ {
		sat := modis.Terra
		if i%2 == 1 {
			sat = modis.Aqua
		}
		g := modis.GranuleID{Satellite: sat, Year: 2022, DOY: 1 + i%3, Index: (i * 37) % modis.GranulesPerDay}
		mod02, mod03, mod06, _ := genTriple(t, g)
		opts := Options{
			TileSize:     []int{gen.TilePixels(), 7, 24}[i%3],
			MinCloudFrac: []float64{0, 0.1, 0.6}[(i/3)%3],
		}
		want, err := extractEager(mod02, mod03, mod06, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Extract(mod02, mod03, mod06, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("granule %+v opts %+v", g, opts), got, want)
		if flag, _ := mod02.AttrString("DayNightFlag"); flag != "Day" {
			night++
		}
		if 2*want.Stats.RejectedLand > want.Stats.Candidates {
			landHeavy++
		}
		kept += want.Stats.Kept
	}
	if night == 0 || landHeavy == 0 || kept == 0 {
		t.Fatalf("granule set misses a kind: night %d, land-heavy %d, tiles kept %d", night, landHeavy, kept)
	}
}

// TestExtractMatchesEagerOracleOnEdgeInputs covers what generated
// granules never carry: a NaN scale or offset (every candidate is
// rejected as fill, exactly as the eager decode rejected it), a fill
// value inside the data range, thermal and empty band selections, and a
// tile size that leaves ragged edges.
func TestExtractMatchesEagerOracleOnEdgeInputs(t *testing.T) {
	g := findGranule(t, true)
	cases := []struct {
		name    string
		attrs   map[string]any
		opts    Options
		allFill bool // every candidate past the mask tests is fill
	}{
		{"nan scale", map[string]any{"radiance_scale": math.NaN()}, Options{TileSize: 8}, true},
		{"nan offset", map[string]any{"radiance_offset": math.NaN()}, Options{TileSize: 8}, true},
		{"negative offset", map[string]any{"radiance_offset": -3.5}, Options{TileSize: 8}, false},
		{"in-range fill", map[string]any{"_FillValue": int64(0)}, Options{TileSize: 8}, false},
		{"thermal bands", nil, Options{TileSize: 8, Bands: []int{27, 28, 30}}, false},
		{"no bands", nil, Options{TileSize: 8, Bands: []int{}}, false},
		{"ragged", nil, Options{TileSize: 13, MinCloudFrac: 0.05}, false},
	}
	for _, tc := range cases {
		mod02, mod03, mod06, _ := genTriple(t, g)
		for k, v := range tc.attrs {
			mod02.Attrs[k] = v
		}
		want, err := extractEager(mod02, mod03, mod06, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Extract(mod02, mod03, mod06, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, tc.name, got, want)
		if tc.allFill != (want.Stats.Kept == 0 && want.Stats.RejectedFill > 0) {
			t.Fatalf("%s: stats %+v, all-fill case %v", tc.name, want.Stats, tc.allFill)
		}
	}
}
