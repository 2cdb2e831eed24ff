package tile

import (
	"fmt"
	"slices"

	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/netcdf"
)

// Dimension and variable names of the tile NetCDF schema. The schema
// mirrors the AICCA dataset layout: one file per granule, one record per
// tile, radiances plus per-tile physical properties and a label variable
// that inference fills in later.
const (
	dimTile = "tile"
	dimBand = "band"
	dimY    = "y"
	dimX    = "x"
)

// ToNetCDF assembles a tile batch into a NetCDF dataset. All tiles must
// share the same band set and tile size.
func ToNetCDF(tiles []*Tile) (*netcdf.File, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("tile: no tiles to encode")
	}
	first := tiles[0]
	nb, ts := len(first.Bands), first.TileSize
	for _, t := range tiles {
		if len(t.Bands) != nb || t.TileSize != ts {
			return nil, fmt.Errorf("tile: heterogeneous tile shapes in batch")
		}
	}
	f := netcdf.New()
	if err := f.AddDim(dimTile, len(tiles)); err != nil {
		return nil, err
	}
	if err := f.AddDim(dimBand, nb); err != nil {
		return nil, err
	}
	if err := f.AddDim(dimY, ts); err != nil {
		return nil, err
	}
	if err := f.AddDim(dimX, ts); err != nil {
		return nil, err
	}
	if err := f.Attrs.SetString("title", "EO-ML ocean-cloud tiles"); err != nil {
		return nil, err
	}
	if err := f.Attrs.SetString("granule", first.Granule); err != nil {
		return nil, err
	}
	bands := make([]int32, nb)
	for i, b := range first.Bands {
		bands[i] = int32(b)
	}
	if err := f.Attrs.SetInts("bands", bands...); err != nil {
		return nil, err
	}

	npix := ts * ts
	rad := make([]float32, len(tiles)*nb*npix)
	lat := make([]float32, len(tiles))
	lon := make([]float32, len(tiles))
	cf := make([]float32, len(tiles))
	ctp := make([]float32, len(tiles))
	cot := make([]float32, len(tiles))
	cer := make([]float32, len(tiles))
	cwp := make([]float32, len(tiles))
	icef := make([]float32, len(tiles))
	rows := make([]int32, len(tiles))
	cols := make([]int32, len(tiles))
	labels := make([]int16, len(tiles))
	for i, t := range tiles {
		copy(rad[i*nb*npix:], t.Data)
		lat[i], lon[i] = t.Lat, t.Lon
		cf[i] = t.CloudFrac
		ctp[i], cot[i], cer[i], cwp[i] = t.MeanCTP, t.MeanCOT, t.MeanCER, t.MeanCWP
		icef[i] = t.IcePhaseFrac
		rows[i], cols[i] = int32(t.Row), int32(t.Col)
		labels[i] = t.Label
	}
	addF := func(name string, dims []string, vals []float32, units string) error {
		v, err := f.AddFloat(name, dims, vals)
		if err != nil {
			return err
		}
		if units != "" {
			return v.Attrs.SetString("units", units)
		}
		return nil
	}
	tileDims := []string{dimTile}
	if err := addF("radiance", []string{dimTile, dimBand, dimY, dimX}, rad, "W/m^2/um/sr"); err != nil {
		return nil, err
	}
	if err := addF("latitude", tileDims, lat, "degrees_north"); err != nil {
		return nil, err
	}
	if err := addF("longitude", tileDims, lon, "degrees_east"); err != nil {
		return nil, err
	}
	if err := addF("cloud_fraction", tileDims, cf, "1"); err != nil {
		return nil, err
	}
	if err := addF("cloud_top_pressure", tileDims, ctp, "hPa"); err != nil {
		return nil, err
	}
	if err := addF("cloud_optical_thickness", tileDims, cot, "1"); err != nil {
		return nil, err
	}
	if err := addF("cloud_effective_radius", tileDims, cer, "micron"); err != nil {
		return nil, err
	}
	if err := addF("cloud_water_path", tileDims, cwp, "g/m^2"); err != nil {
		return nil, err
	}
	if err := addF("ice_phase_fraction", tileDims, icef, "1"); err != nil {
		return nil, err
	}
	if _, err := f.AddInt("tile_row", tileDims, rows); err != nil {
		return nil, err
	}
	if _, err := f.AddInt("tile_col", tileDims, cols); err != nil {
		return nil, err
	}
	lv, err := f.AddShort("label", tileDims, labels)
	if err != nil {
		return nil, err
	}
	if err := lv.Attrs.SetString("long_name", "AICCA cloud class (0..41), -1 unassigned"); err != nil {
		return nil, err
	}
	if err := lv.Attrs.SetShorts("_FillValue", -1); err != nil {
		return nil, err
	}
	return f, nil
}

// FromNetCDF reconstructs tiles from a file written by ToNetCDF. The
// file may come from any writer, so every variable must span exactly
// the dimensions ToNetCDF gives it before it is indexed: the netcdf
// layer guarantees a variable's length is the product of its
// dimensions, so radiance then holds tile×band×y×x values and every
// per-tile variable holds one value per tile.
func FromNetCDF(f *netcdf.File) ([]*Tile, error) {
	radDims, tileDims := []string{dimTile, dimBand, dimY, dimX}, []string{dimTile}
	lens := make([]int, len(radDims))
	for i, name := range radDims {
		n, err := f.DimLen(name)
		if err != nil {
			return nil, err
		}
		lens[i] = n
	}
	ntiles, nb, ts := lens[0], lens[1], lens[2]
	if lens[3] != ts {
		return nil, fmt.Errorf("tile: %d×%d tiles are not square", ts, lens[3])
	}
	granule, _ := f.Attrs.GetString("granule")
	bandAttr, _ := f.Attrs.GetInts("bands")
	if len(bandAttr) != nb {
		return nil, fmt.Errorf("tile: bands attribute lists %d bands, band dimension is %d", len(bandAttr), nb)
	}
	bands := make([]int, len(bandAttr))
	for i, b := range bandAttr {
		bands[i] = int(b)
	}

	// shaped returns the named variable after checking it spans dims.
	shaped := func(name string, dims []string) (*netcdf.Var, error) {
		v, err := f.Var(name)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(v.Dims, dims) {
			return nil, fmt.Errorf("tile: variable %q has dimensions %v, want %v", name, v.Dims, dims)
		}
		return v, nil
	}
	getF := func(name string, dims []string) ([]float32, error) {
		v, err := shaped(name, dims)
		if err != nil {
			return nil, err
		}
		return v.Float32s()
	}
	rad, err := getF("radiance", radDims)
	if err != nil {
		return nil, err
	}
	lat, err := getF("latitude", tileDims)
	if err != nil {
		return nil, err
	}
	lon, err := getF("longitude", tileDims)
	if err != nil {
		return nil, err
	}
	cf, err := getF("cloud_fraction", tileDims)
	if err != nil {
		return nil, err
	}
	ctp, err := getF("cloud_top_pressure", tileDims)
	if err != nil {
		return nil, err
	}
	cot, err := getF("cloud_optical_thickness", tileDims)
	if err != nil {
		return nil, err
	}
	cer, err := getF("cloud_effective_radius", tileDims)
	if err != nil {
		return nil, err
	}
	cwp, err := getF("cloud_water_path", tileDims)
	if err != nil {
		return nil, err
	}
	icef, err := getF("ice_phase_fraction", tileDims)
	if err != nil {
		return nil, err
	}
	rowV, err := shaped("tile_row", tileDims)
	if err != nil {
		return nil, err
	}
	rows, err := rowV.Int32s()
	if err != nil {
		return nil, err
	}
	colV, err := shaped("tile_col", tileDims)
	if err != nil {
		return nil, err
	}
	cols, err := colV.Int32s()
	if err != nil {
		return nil, err
	}
	labV, err := shaped("label", tileDims)
	if err != nil {
		return nil, err
	}
	labels, err := labV.Int16s()
	if err != nil {
		return nil, err
	}

	npix := ts * ts
	tiles := make([]*Tile, ntiles)
	for i := range tiles {
		tiles[i] = &Tile{
			Granule:      granule,
			Row:          int(rows[i]),
			Col:          int(cols[i]),
			Data:         rad[i*nb*npix : (i+1)*nb*npix],
			Bands:        bands,
			TileSize:     ts,
			Lat:          lat[i],
			Lon:          lon[i],
			CloudFrac:    cf[i],
			MeanCTP:      ctp[i],
			MeanCOT:      cot[i],
			MeanCER:      cer[i],
			MeanCWP:      cwp[i],
			IcePhaseFrac: icef[i],
			Label:        labels[i],
		}
	}
	return tiles, nil
}

// FileName is the name of granule g's tile NetCDF, the same wherever
// the file is produced — in-process or on a fleet worker — so both
// distributions leave identical layouts.
func FileName(g modis.GranuleID) string {
	return fmt.Sprintf("tiles.%s.A%04d%03d.%s.nc", g.Satellite.Prefix(), g.Year, g.DOY, g.HHMM())
}

// WriteNetCDF writes a tile batch to path.
func WriteNetCDF(path string, tiles []*Tile) error {
	f, err := ToNetCDF(tiles)
	if err != nil {
		return err
	}
	return netcdf.WriteFile(path, f)
}

// ReadNetCDF loads a tile batch from path.
func ReadNetCDF(path string) ([]*Tile, error) {
	f, err := netcdf.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromNetCDF(f)
}

// AppendLabels rewrites the tile file at path with the label variable set.
// This is the "append cloud labels to NetCDF file" step of the paper's
// inference Flow.
func AppendLabels(path string, labels []int16) error {
	f, err := netcdf.ReadFile(path)
	if err != nil {
		return err
	}
	v, err := f.Var("label")
	if err != nil {
		return err
	}
	if err := v.SetShorts(labels); err != nil {
		return err
	}
	return netcdf.WriteFile(path, f)
}
