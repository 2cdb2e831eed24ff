package tile

import (
	"fmt"
	"strings"
	"testing"

	"github.com/eoml/eoml/internal/netcdf"
)

// tileFile builds a well-formed 3-tile, 2-band, 4×4 file with
// ToNetCDF's variable layout and zero values, except that the x
// dimension is xLen long, the bands attribute lists bands, and each
// variable named in dims spans those dimensions instead of its usual
// ones. An extra dimension "one" of length 1 is available to cases.
func tileFile(t *testing.T, xLen int, bands []int32, dims map[string][]string) *netcdf.File {
	t.Helper()
	f := netcdf.New()
	lens := map[string]int{dimTile: 3, dimBand: 2, dimY: 4, dimX: xLen, "one": 1}
	for _, d := range []string{dimTile, dimBand, dimY, dimX, "one"} {
		if err := f.AddDim(d, lens[d]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Attrs.SetInts("bands", bands...); err != nil {
		t.Fatal(err)
	}
	add := func(name string, usual ...string) {
		t.Helper()
		vd, ok := dims[name]
		if !ok {
			vd = usual
		}
		n := 1
		for _, d := range vd {
			n *= lens[d]
		}
		var err error
		switch name {
		case "tile_row", "tile_col":
			_, err = f.AddInt(name, vd, make([]int32, n))
		case "label":
			_, err = f.AddShort(name, vd, make([]int16, n))
		default:
			_, err = f.AddFloat(name, vd, make([]float32, n))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	add("radiance", dimTile, dimBand, dimY, dimX)
	for _, name := range []string{"latitude", "longitude", "cloud_fraction",
		"cloud_top_pressure", "cloud_optical_thickness", "cloud_effective_radius",
		"cloud_water_path", "ice_phase_fraction", "tile_row", "tile_col", "label"} {
		add(name, dimTile)
	}
	return f
}

// fromNetCDF is FromNetCDF with a panic turned into an error, so one
// bad case reports instead of killing the test binary.
func fromNetCDF(f *netcdf.File) (tiles []*Tile, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			tiles = nil
		}
	}()
	return FromNetCDF(f)
}

// TestFromNetCDFRejectsMismatchedVariables pins that a well-formed
// NetCDF file whose variables disagree with its dimensions is refused
// with an error. Tile files can come from any writer that drops them
// into the watched directory; unchecked, each of these indexes out of
// range (or, for the bands attribute, panics later in the encoder).
func TestFromNetCDFRejectsMismatchedVariables(t *testing.T) {
	two := []int32{1, 2}
	if tiles, err := fromNetCDF(tileFile(t, 4, two, nil)); err != nil || len(tiles) != 3 {
		t.Fatalf("well-formed file: %d tiles, %v", len(tiles), err)
	}
	cases := []struct {
		name  string
		xLen  int
		bands []int32
		dims  map[string][]string
	}{
		{"tile_row of length 1", 4, two, map[string][]string{"tile_row": {"one"}}},
		{"short latitude", 4, two, map[string][]string{"latitude": {"one"}}},
		{"label per band", 4, two, map[string][]string{"label": {dimBand}}},
		{"radiance missing x", 4, two, map[string][]string{"radiance": {dimTile, dimBand, dimY}}},
		{"radiance one tile", 4, two, map[string][]string{"radiance": {"one", dimBand, dimY, dimX}}},
		{"non-square tiles", 2, two, nil},
		{"bands attribute short", 4, []int32{1}, nil},
	}
	for _, c := range cases {
		if _, err := fromNetCDF(tileFile(t, c.xLen, c.bands, c.dims)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if strings.HasPrefix(err.Error(), "panic:") {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
