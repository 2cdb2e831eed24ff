package tile

import (
	"errors"
	"math"
	"testing"

	"github.com/eoml/eoml/internal/hdf"
)

// Fuzz flags: each bit breaks one dataset or attribute of the triple.
const (
	fzRadUint8     = 1 << iota // EV_1KM_RefSB stored as uint8
	fzRadRank2                 // EV_1KM_RefSB without its band axis
	fzLandSwapped              // LandSeaMask dims [nx ny]
	fzCloudFloat               // Cloud_Mask_1km stored as float32
	fzLatLong                  // Latitude one value too long
	fzLonFlat                  // Longitude as one flat axis (still ny*nx values)
	fzCTPShort                 // Cloud_Top_Pressure dims [1 4]
	fzCOTUint8                 // Cloud_Optical_Thickness stored as uint8
	fzPhaseShort               // Cloud_Phase_Infrared dims [1 4]
	fzPhaseFloat               // Cloud_Phase_Infrared stored as float32
	fzNoScale                  // radiance_scale missing
	fzNoFill                   // _FillValue missing
	fzBandOut                  // a band index past the cube
	fzOtherGranule             // MOD06 from another acquisition
	fzDropPhase                // Cloud_Phase_Infrared missing
)

// fuzzTriple builds a granule triple of ny×nx pixels and nb bands whose
// values cycle through payload, broken as flags say.
func fuzzTriple(t testing.TB, ny, nx, nb int, flags uint32, scale, offset float64, fill uint16, payload []byte) (mod02, mod03, mod06 *hdf.File, bands []int) {
	if len(payload) == 0 {
		payload = []byte{0}
	}
	at := func(i int) byte { return payload[i%len(payload)] }
	u8 := func(name string, dims []int, f func(i int) byte) *hdf.Dataset {
		v := make([]uint8, prod(dims))
		for i := range v {
			v[i] = f(i)
		}
		d, err := hdf.NewUint8(name, dims, v)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	f32 := func(name string, dims []int, f func(i int) float32) *hdf.Dataset {
		v := make([]float32, prod(dims))
		for i := range v {
			v[i] = f(i)
		}
		d, err := hdf.NewFloat32(name, dims, v)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	newFile := func(acq string, ds ...*hdf.Dataset) *hdf.File {
		f := hdf.NewFile()
		f.Attrs["AcquisitionDate"] = acq
		for _, d := range ds {
			if err := f.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	has := func(bit uint32) bool { return flags&bit != 0 }
	swath := []int{ny, nx}

	var rad *hdf.Dataset
	radDims := []int{nb, ny, nx}
	if has(fzRadRank2) {
		radDims = []int{nb * ny, nx}
	}
	if has(fzRadUint8) {
		rad = u8("EV_1KM_RefSB", radDims, at)
	} else {
		v := make([]uint16, prod(radDims))
		for i := range v {
			v[i] = uint16(at(i)) | uint16(at(i+1))<<8
		}
		var err error
		if rad, err = hdf.NewUint16("EV_1KM_RefSB", radDims, v); err != nil {
			t.Fatal(err)
		}
	}
	mod02 = newFile("A2022001.0000", rad)
	mod02.Attrs["ShortName"] = "MOD021KM"
	if !has(fzNoScale) {
		mod02.Attrs["radiance_scale"] = scale
	}
	mod02.Attrs["radiance_offset"] = offset
	if !has(fzNoFill) {
		mod02.Attrs["_FillValue"] = int64(fill)
	}

	landDims := swath
	if has(fzLandSwapped) {
		landDims = []int{nx, ny}
	}
	latDims, lonDims := swath, swath
	if has(fzLatLong) {
		latDims = []int{ny*nx + 1}
	}
	if has(fzLonFlat) {
		lonDims = []int{ny * nx}
	}
	// Mostly ocean: a payload byte marks land only when it is a multiple
	// of 7, so candidates reach the cloud and fill tests.
	mod03 = newFile("A2022001.0000",
		u8("LandSeaMask", landDims, func(i int) byte { return b2u(at(3*i)%7 == 0) }),
		f32("Latitude", latDims, func(i int) float32 { return float32(at(i)) - 90 }),
		f32("Longitude", lonDims, func(i int) float32 { return float32(at(i+5)) - 128 }),
	)

	acq06 := "A2022001.0000"
	if has(fzOtherGranule) {
		acq06 = "A2022001.0005"
	}
	var cloud *hdf.Dataset
	if has(fzCloudFloat) {
		cloud = f32("Cloud_Mask_1km", swath, func(i int) float32 { return 1 })
	} else {
		cloud = u8("Cloud_Mask_1km", swath, func(i int) byte { return at(i+1) & 1 })
	}
	ctpDims := swath
	if has(fzCTPShort) {
		ctpDims = []int{1, 4}
	}
	var cot *hdf.Dataset
	if has(fzCOTUint8) {
		cot = u8("Cloud_Optical_Thickness", swath, at)
	} else {
		cot = f32("Cloud_Optical_Thickness", swath, func(i int) float32 { return float32(at(i+2)) / 4 })
	}
	ds06 := []*hdf.Dataset{
		cloud,
		f32("Cloud_Top_Pressure", ctpDims, func(i int) float32 { return 100 + float32(at(i)) }),
		cot,
		f32("Cloud_Effective_Radius", swath, func(i int) float32 { return float32(at(i+3)) / 8 }),
		f32("Cloud_Water_Path", swath, func(i int) float32 { return float32(at(i + 4)) }),
	}
	phaseDims := swath
	if has(fzPhaseShort) {
		phaseDims = []int{1, 4}
	}
	switch {
	case has(fzDropPhase):
	case has(fzPhaseFloat):
		ds06 = append(ds06, f32("Cloud_Phase_Infrared", phaseDims, func(i int) float32 { return 2 }))
	default:
		ds06 = append(ds06, u8("Cloud_Phase_Infrared", phaseDims, func(i int) byte { return at(i) % 3 }))
	}
	mod06 = newFile(acq06, ds06...)

	for b := 0; b < nb && b < 6; b++ {
		bands = append(bands, b)
	}
	if has(fzBandOut) {
		bands = append(bands, nb)
	}
	return mod02, mod03, mod06, bands
}

func prod(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// FuzzExtract builds a granule triple from fuzzed dims, dtypes, shapes
// and attributes and runs Extract on it. Extract indexes the datasets'
// raw bytes directly, so it must answer every triple with an error or a
// result and never panic; where the eager oracle also accepts the
// triple, the two results must match.
func FuzzExtract(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(2), uint8(4), uint32(fzPhaseShort), 0.01, 0.0, uint16(65535), []byte{1, 3, 5, 9})
	f.Add(uint8(9), uint8(12), uint8(3), uint8(3), uint32(0), 0.02, 1.5, uint16(300), []byte{1, 3, 5, 9, 11, 13, 200, 255})
	f.Add(uint8(6), uint8(6), uint8(1), uint8(2), uint32(0), math.NaN(), 0.0, uint16(0), []byte{1, 2})
	f.Fuzz(func(t *testing.T, ny, nx, nb, ts uint8, flags uint32, scale, offset float64, fill uint16, payload []byte) {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		h, w, b := 1+int(ny%16), 1+int(nx%16), 1+int(nb%4)
		mod02, mod03, mod06, bands := fuzzTriple(t, h, w, b, flags, scale, offset, fill, payload)
		opts := Options{TileSize: int(ts % 20), Bands: bands, MinCloudFrac: 0.25}
		res, err := Extract(mod02, mod03, mod06, opts)
		if err != nil {
			return
		}
		if res.Stats.Kept+res.Stats.RejectedLand+res.Stats.RejectedCloud+res.Stats.RejectedFill != res.Stats.Candidates {
			t.Fatalf("stats do not partition the candidates: %+v", res.Stats)
		}
		if want, err := extractEager(mod02, mod03, mod06, opts); err == nil {
			sameResult(t, "fuzzed triple", res, want)
		}
	})
}

// TestExtractRejectsShortPhase is the crash FuzzExtract is seeded with:
// a CRC-valid MOD06 whose Cloud_Phase_Infrared is [1 4] on an all-ocean,
// all-cloudy 8×8 swath, so every tile is kept and its cloud statistics
// would index the phase past its end. Extract must name the dataset in a
// DimsError.
func TestExtractRejectsShortPhase(t *testing.T) {
	mod02, mod03, mod06, bands := fuzzTriple(t, 8, 8, 2, fzPhaseShort, 0.01, 0, 65535, []byte{1, 3, 5, 9})
	_, err := Extract(mod02, mod03, mod06, Options{TileSize: 4, Bands: bands})
	var de *DimsError
	if !errors.As(err, &de) || de.Name != "Cloud_Phase_Infrared" || de.Product != "MOD06" {
		t.Fatalf("Extract = %v, want a MOD06 Cloud_Phase_Infrared DimsError", err)
	}
}
