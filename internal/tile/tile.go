// Package tile implements the preprocessing stage of the EO-ML workflow:
// decomposing a MODIS swath into fixed-size multi-channel "tiles" and
// selecting the ocean-cloud tiles used for RICC inference and AICCA label
// production.
//
// Following the paper (§III.2) and the AICCA tile definition, a swath of
// 2030×1354 pixels × 36 channels is cut into non-overlapping square tiles
// of 6 selected channels. A tile is kept only if every pixel is ocean and
// at least 30% of its pixels are cloudy. Tiles whose selected bands carry
// the L1B fill value (nighttime granules lack reflective bands) are
// rejected, which reproduces the day/night processing-time variability the
// paper notes.
package tile

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/tensor"
)

// Options configures tile extraction.
type Options struct {
	// TileSize is the tile edge length in pixels of the input granule.
	// At full resolution this is 128; granules generated with ScaleDown s
	// use 128/s so a tile still covers ~100 km × 100 km.
	TileSize int
	// Bands are the EV_1KM_RefSB band indices to extract (default
	// modis.AICCABands).
	Bands []int
	// MinCloudFrac is the minimum cloudy-pixel fraction (default 0.3).
	MinCloudFrac float64
	// Arena is not read: Extract decodes each kept tile straight into its
	// own buffer and keeps no per-granule scratch to recycle.
	//
	// Deprecated: leave it nil.
	Arena *tensor.ShardedArena
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.TileSize == 0 {
		o.TileSize = modis.TileSize
	}
	if o.Bands == nil {
		o.Bands = modis.AICCABands
	}
	if o.MinCloudFrac == 0 {
		o.MinCloudFrac = 0.3
	}
	return o
}

// Tile is one ocean-cloud tile with its normalized radiances and the
// MOD06-derived physical properties AICCA attaches to each record.
type Tile struct {
	Granule  string // source granule file name (MOD02)
	Row, Col int    // tile grid position within the swath

	// Data holds band-major normalized radiances: Bands × TileSize ×
	// TileSize values in physical units (scale/offset applied).
	Data     []float32
	Bands    []int
	TileSize int

	// Geolocation of the tile center.
	Lat, Lon float32

	// Cloud statistics from MOD06.
	CloudFrac    float32 // fraction of cloudy pixels
	MeanCTP      float32 // mean cloud-top pressure over cloudy pixels, hPa
	MeanCOT      float32 // mean cloud optical thickness
	MeanCER      float32 // mean cloud effective radius, micron
	MeanCWP      float32 // mean cloud water path, g/m^2
	IcePhaseFrac float32 // fraction of cloudy pixels in ice phase

	// Label is the AICCA class assigned by inference; -1 before inference.
	Label int16
}

// Stats summarizes an extraction for monitoring and tests.
type Stats struct {
	GridRows, GridCols int
	Candidates         int // total grid positions
	RejectedLand       int // tiles containing land or coast pixels
	RejectedCloud      int // all-ocean tiles under the cloud threshold
	RejectedFill       int // tiles with fill radiances (nighttime)
	Kept               int
}

// Result carries the kept tiles plus extraction statistics.
type Result struct {
	Tiles []*Tile
	Stats Stats
}

// DimsError reports a MOD03 or MOD06 dataset whose shape does not match
// the MOD02 swath it is read against.
type DimsError struct {
	Product string // "MOD03" or "MOD06"
	Name    string // dataset name
	Dims    []int  // the dataset's dims
	Want    []int  // the swath's [ny nx]
}

func (e *DimsError) Error() string {
	return fmt.Sprintf("tile: %s %s dims %v, want %v", e.Product, e.Name, e.Dims, e.Want)
}

// Extract cuts ocean-cloud tiles from one granule triple. The three files
// must come from the same granule (matching AcquisitionDate attributes).
//
// Every dtype, rank and dims check runs before any byte is read. The
// masks are then read in place from the datasets' raw bytes, and a
// candidate's radiances are decoded only once it passes the land and
// cloud tests, straight into the tile's own buffer; a candidate the fill
// test rejects lends that buffer to the next one. Geolocation is read at
// the kept tile's centre pixel and the MOD06 properties at its cloudy
// pixels, so no swath-sized plane is ever decoded. The tiles own all
// their memory: none aliases the files' bytes.
func Extract(mod02, mod03, mod06 *hdf.File, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if err := sameGranule(mod02, mod03, mod06); err != nil {
		return nil, err
	}
	sw, err := openSwath(mod02, mod03, mod06, o.Bands)
	if err != nil {
		return nil, err
	}
	ny, nx := sw.ny, sw.nx

	ts := o.TileSize
	if ts <= 0 || ts > ny || ts > nx {
		return nil, fmt.Errorf("tile: tile size %d incompatible with swath %d×%d", ts, ny, nx)
	}
	rows, cols := ny/ts, nx/ts
	granule, _ := mod02.AttrString("ShortName")
	acq, _ := mod02.AttrString("AcquisitionDate")
	granule = granule + "." + acq

	res := &Result{Stats: Stats{GridRows: rows, GridCols: cols, Candidates: rows * cols}}
	npix := ts * ts
	minCloudPix := int(o.MinCloudFrac * float64(npix))
	land, cloud := sw.land, sw.cloud
	// buf is the candidate's radiance buffer. A kept tile takes it; one
	// the fill test rejects leaves it for the next candidate.
	var buf []float32

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			y0, x0 := r*ts, c*ts
			// Pass 1: masks. All pixels must be ocean; count cloudy ones.
			allOcean := true
			cloudy := 0
			for y := y0; y < y0+ts && allOcean; y++ {
				lrow := land[y*nx+x0 : y*nx+x0+ts]
				crow := cloud[y*nx+x0 : y*nx+x0+ts]
				for x, l := range lrow {
					if l != 0 {
						allOcean = false
						break
					}
					if crow[x] != 0 {
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
			// Pass 2: radiances, decoded into the tile's own buffer. A
			// value that decodes to NaN (the fill of night reflective
			// bands, or a NaN scale or offset) rejects the tile.
			if buf == nil {
				buf = make([]float32, len(o.Bands)*npix)
			}
			if !sw.decodeTile(buf, o.Bands, y0, x0, ts) {
				res.Stats.RejectedFill++
				continue
			}
			center := (y0+ts/2)*nx + x0 + ts/2
			t := &Tile{
				Granule:  granule,
				Row:      r,
				Col:      c,
				Data:     buf,
				Bands:    append([]int(nil), o.Bands...),
				TileSize: ts,
				Lat:      f32At(sw.lat, center),
				Lon:      f32At(sw.lon, center),
				Label:    -1,
			}
			buf = nil
			sw.fillCloudStats(t, y0, x0, ts)
			res.Tiles = append(res.Tiles, t)
		}
	}
	res.Stats.Kept = len(res.Tiles)
	return res, nil
}

// swath holds the raw little-endian bytes of every dataset Extract
// reads, each checked for dtype and shape against the MOD02 swath.
type swath struct {
	ny, nx int

	rad                []byte // EV_1KM_RefSB, uint16 [band ny nx]
	scale, offset      float64
	fill               uint16
	land, cloud        []byte // uint8 [ny nx]
	lat, lon           []byte // float32, ny*nx values
	ctp, cot, cer, cwp []byte // float32 [ny nx]
	phase              []byte // uint8 [ny nx]
}

// openSwath runs every check Extract makes before it reads a byte, in the
// order the checks have always run: the radiance cube and its
// attributes, the selected bands, the two masks, geolocation, then the
// MOD06 properties.
func openSwath(mod02, mod03, mod06 *hdf.File, bands []int) (*swath, error) {
	rad, err := mod02.Dataset("EV_1KM_RefSB")
	if err != nil {
		return nil, fmt.Errorf("tile: MOD02: %w", err)
	}
	if len(rad.Dims) != 3 {
		return nil, fmt.Errorf("tile: EV_1KM_RefSB rank %d, want 3", len(rad.Dims))
	}
	nbands, ny, nx := rad.Dims[0], rad.Dims[1], rad.Dims[2]
	sw := &swath{ny: ny, nx: nx}
	var ok bool
	if sw.scale, ok = mod02.AttrFloat("radiance_scale"); !ok {
		return nil, fmt.Errorf("tile: MOD02 missing radiance_scale attribute")
	}
	sw.offset, _ = mod02.AttrFloat("radiance_offset")
	fillAttr, ok := mod02.AttrInt("_FillValue")
	if !ok {
		fillAttr = 65535
	}
	sw.fill = uint16(fillAttr)

	for _, b := range bands {
		if b < 0 || b >= nbands {
			return nil, fmt.Errorf("tile: band %d out of range [0,%d)", b, nbands)
		}
	}
	if len(bands) > 0 {
		if rad.DType != hdf.Uint16 {
			return nil, fmt.Errorf("hdf: dataset %q is %v, want uint16", rad.Name, rad.DType)
		}
		if sw.rad, err = rawOf(rad); err != nil {
			return nil, err
		}
	}

	want := []int{ny, nx}
	if sw.land, err = plane(mod03, "MOD03", "LandSeaMask", hdf.Uint8, want); err != nil {
		return nil, err
	}
	if sw.cloud, err = plane(mod06, "MOD06", "Cloud_Mask_1km", hdf.Uint8, want); err != nil {
		return nil, err
	}
	// Geolocation is read by flat pixel index, so only its length must
	// match the swath's, not its shape.
	if sw.lat, err = geo(mod03, "Latitude", ny*nx); err != nil {
		return nil, err
	}
	if sw.lon, err = geo(mod03, "Longitude", ny*nx); err != nil {
		return nil, err
	}
	for _, p := range []struct {
		name string
		dst  *[]byte
	}{
		{"Cloud_Top_Pressure", &sw.ctp},
		{"Cloud_Optical_Thickness", &sw.cot},
		{"Cloud_Effective_Radius", &sw.cer},
		{"Cloud_Water_Path", &sw.cwp},
	} {
		if *p.dst, err = plane(mod06, "MOD06", p.name, hdf.Float32, want); err != nil {
			return nil, err
		}
	}
	if sw.phase, err = plane(mod06, "MOD06", "Cloud_Phase_Infrared", hdf.Uint8, want); err != nil {
		return nil, err
	}
	return sw, nil
}

// plane returns the raw bytes of a 2-D dataset of the given dtype whose
// dims equal want.
func plane(f *hdf.File, product, name string, dt hdf.DType, want []int) ([]byte, error) {
	d, err := f.Dataset(name)
	if err != nil {
		return nil, fmt.Errorf("tile: %s: %w", product, err)
	}
	if len(d.Dims) != 2 || d.Dims[0] != want[0] || d.Dims[1] != want[1] {
		return nil, &DimsError{Product: product, Name: name, Dims: d.Dims, Want: want}
	}
	if d.DType != dt {
		return nil, fmt.Errorf("hdf: dataset %q is %v, want %v", d.Name, d.DType, dt)
	}
	return rawOf(d)
}

// geo returns the raw bytes of a float32 MOD03 geolocation dataset of n
// values.
func geo(mod03 *hdf.File, name string, n int) ([]byte, error) {
	d, err := mod03.Dataset(name)
	if err != nil {
		return nil, fmt.Errorf("tile: MOD03: %w", err)
	}
	if d.DType != hdf.Float32 {
		return nil, fmt.Errorf("hdf: dataset %q is %v, want float32", d.Name, d.DType)
	}
	if got, ok := elems(d.Dims); !ok || got != n {
		return nil, fmt.Errorf("hdf: dataset %q: dims %v hold %d values, want %d", d.Name, d.Dims, got, n)
	}
	return rawOf(d)
}

// rawOf returns d's bytes once they hold exactly the elements its dims
// name, so every index below a dim bound is in range.
func rawOf(d *hdf.Dataset) ([]byte, error) {
	n, ok := elems(d.Dims)
	raw := d.Raw()
	if !ok || len(raw)/d.DType.Size() != n {
		return nil, fmt.Errorf("hdf: dataset %q: %d bytes for dims %v of %v", d.Name, len(raw), d.Dims, d.DType)
	}
	return raw, nil
}

// elems is the product of dims, false when a dim is negative or the
// product overflows.
func elems(dims []int) (int, bool) {
	if len(dims) == 0 {
		return 0, true
	}
	n := 1
	for _, d := range dims {
		if d < 0 || (d > 0 && n > math.MaxInt/d) {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// decodeTile decodes the selected bands of the ts×ts tile at (y0, x0)
// into dst, band-major, as v*scale + offset. It returns false at the
// first value that is the fill or decodes to NaN; dst is then partly
// written.
func (sw *swath) decodeTile(dst []float32, bands []int, y0, x0, ts int) bool {
	npix := ts * ts
	for bi, b := range bands {
		for y := 0; y < ts; y++ {
			off := 2 * ((b*sw.ny+y0+y)*sw.nx + x0)
			row := sw.rad[off : off+2*ts]
			out := dst[bi*npix+y*ts : bi*npix+(y+1)*ts]
			for x := range out {
				v := binary.LittleEndian.Uint16(row[2*x:])
				if v == sw.fill {
					return false
				}
				f := float32(float64(v)*sw.scale + sw.offset)
				if f != f {
					return false
				}
				out[x] = f
			}
		}
	}
	return true
}

// fillCloudStats averages the MOD06 properties over the tile's cloudy
// pixels.
func (sw *swath) fillCloudStats(t *Tile, y0, x0, ts int) {
	var sumCTP, sumCOT, sumCER, sumCWP float64
	cloudy, ice := 0, 0
	for y := y0; y < y0+ts; y++ {
		base := y * sw.nx
		for x := x0; x < x0+ts; x++ {
			i := base + x
			if sw.cloud[i] == 0 {
				continue
			}
			cloudy++
			sumCTP += float64(f32At(sw.ctp, i))
			sumCOT += float64(f32At(sw.cot, i))
			sumCER += float64(f32At(sw.cer, i))
			sumCWP += float64(f32At(sw.cwp, i))
			if sw.phase[i] == 2 {
				ice++
			}
		}
	}
	t.CloudFrac = float32(cloudy) / float32(ts*ts)
	if cloudy > 0 {
		t.MeanCTP = float32(sumCTP / float64(cloudy))
		t.MeanCOT = float32(sumCOT / float64(cloudy))
		t.MeanCER = float32(sumCER / float64(cloudy))
		t.MeanCWP = float32(sumCWP / float64(cloudy))
		t.IcePhaseFrac = float32(ice) / float32(cloudy)
	}
}

// f32At reads float32 value i of little-endian raw bytes.
func f32At(raw []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
}

// sameGranule verifies the three products describe the same observation.
func sameGranule(files ...*hdf.File) error {
	var acq string
	for i, f := range files {
		a, ok := f.AttrString("AcquisitionDate")
		if !ok {
			return fmt.Errorf("tile: product %d missing AcquisitionDate", i)
		}
		if i == 0 {
			acq = a
		} else if a != acq {
			return fmt.Errorf("tile: granule mismatch: %q vs %q", acq, a)
		}
	}
	return nil
}
