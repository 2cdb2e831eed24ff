package core

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/provenance"
)

// SetProvenance attaches a provenance store; subsequent Run calls record
// the full lineage of every shipped product (granules → tile file →
// labeled file → shipped file) into it.
func (p *Run) SetProvenance(store *provenance.Store) {
	p.prov = store
}

// recordGranule registers a downloaded granule entity.
func (p *Run) recordGranule(prod modis.Product, g modis.GranuleID) string {
	if p.prov == nil {
		return ""
	}
	id := "granule:" + modis.FileName(prod, g)
	// Errors here are programming errors (bad IDs); lineage must never
	// abort science runs, so they are intentionally not fatal.
	_ = p.prov.AddEntity(provenance.Entity{
		ID:   id,
		Kind: "granule",
		URI:  p.cfg.ArchiveURL + "/archive/" + prod.ShortName(),
		Attrs: map[string]string{
			"satellite": g.Satellite.String(),
			"acquired":  fmt.Sprintf("%04d-%03d %s", g.Year, g.DOY, g.HHMM()),
		},
	})
	return id
}

// recordPreprocess registers the tile entity and the preprocessing
// activity linking it to its source granules.
func (p *Run) recordPreprocess(g modis.GranuleID, tilePath string, tiles int, started, ended time.Time) {
	if p.prov == nil {
		return
	}
	var inputs []string
	for _, prod := range p.cfg.Products() {
		inputs = append(inputs, p.recordGranule(prod, g))
	}
	tileID := "tiles:" + filepath.Base(tilePath)
	_ = p.prov.AddEntity(provenance.Entity{
		ID:   tileID,
		Kind: "tiles",
		URI:  "file://" + tilePath,
		Attrs: map[string]string{
			"count": fmt.Sprint(tiles),
		},
	})
	_ = p.prov.AddActivity(provenance.Activity{
		ID:      fmt.Sprintf("preprocess:%s:%04d", filepath.Base(tilePath), g.Index),
		Name:    "preprocess",
		Agent:   "defiant",
		Started: started,
		Ended:   ended,
		Inputs:  inputs,
		Outputs: []string{tileID},
	})
}

// recordInference registers the labeled entity derived from a tile
// file: a granule's, published by its own task, or one another writer
// dropped into TileDir, published by its label-file task.
func (p *Run) recordInference(tilePath, outboxPath string, labeled int, started, ended time.Time) {
	if p.prov == nil {
		return
	}
	tileID := "tiles:" + filepath.Base(tilePath)
	labeledID := "labeled:" + filepath.Base(outboxPath)
	_ = p.prov.AddEntity(provenance.Entity{
		ID:   labeledID,
		Kind: "tiles",
		URI:  "file://" + outboxPath,
		Attrs: map[string]string{
			"labeled": fmt.Sprint(labeled),
		},
	})
	_ = p.prov.AddActivity(provenance.Activity{
		ID:      "inference:" + filepath.Base(outboxPath),
		Name:    "inference",
		Agent:   "defiant",
		Started: started,
		Ended:   ended,
		Inputs:  []string{tileID},
		Outputs: []string{labeledID},
	})
}

// recordShipment registers shipped entities for each outbox file.
func (p *Run) recordShipment(names []string, started, ended time.Time) {
	if p.prov == nil || len(names) == 0 {
		return
	}
	var inputs, outputs []string
	for _, name := range names {
		in := "labeled:" + name
		out := "shipped:" + name
		_ = p.prov.AddEntity(provenance.Entity{
			ID:   out,
			Kind: "tiles",
			URI:  "file://" + filepath.Join(p.cfg.DestDir, name),
		})
		inputs = append(inputs, in)
		outputs = append(outputs, out)
	}
	_ = p.prov.AddActivity(provenance.Activity{
		ID:      fmt.Sprintf("shipment:%d", len(names)),
		Name:    "shipment",
		Agent:   "globus-transfer",
		Started: started,
		Ended:   ended,
		Inputs:  inputs,
		Outputs: outputs,
	})
}
