package core

import (
	"context"
	"fmt"

	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/stage"
)

// fleetSubmit and fleetCollect are the one way a run hands granules to
// the worker fleet, shared by Run and RunStream: one task per granule,
// in which the leasing worker fetches, tiles, labels and publishes the
// labeled file into OutboxDir. Nothing else is submitted for a granule,
// so no labeled product waits behind another granule's preprocessing.
//
// fleetSubmit leases g. Tasks ship granule refs — paths on shared
// storage plus archive coordinates, so a worker without the run's data
// directory fetches inputs itself — and the model refs to label with.
func (p *Run) fleetSubmit(ctx context.Context, g modis.GranuleID) (*fleet.Future, error) {
	args, err := fleet.GranuleArgs{
		Satellite:    g.Satellite.String(),
		Year:         g.Year,
		DOY:          g.DOY,
		Index:        g.Index,
		DataDir:      p.cfg.DataDir,
		OutboxDir:    p.cfg.OutboxDir,
		TilePixels:   p.cfg.TilePixels,
		MinCloudFrac: p.cfg.MinCloudFrac,
		Model:        p.cfg.ModelPath,
		Codebook:     p.cfg.CodebookPath,
		Precision:    p.cfg.Precision,
		ArchiveURL:   p.cfg.ArchiveURL,
		ArchiveToken: p.cfg.ArchiveToken,
	}.Args()
	if err != nil {
		return nil, err
	}
	return p.fleet.Submit(ctx, fleet.GranuleFunction, args)
}

// fleetCollect waits for g's task and books its outcome: lineage, and
// the published file against svc's completion count. Both use the phase
// times the worker reports, not when this process happened to collect
// the result (worker and run clocks are assumed synchronized, as any
// multi-facility provenance record assumes).
func (p *Run) fleetCollect(ctx context.Context, rc *stage.RunContext, svc *stage.InferenceService, g modis.GranuleID, fut *fleet.Future) (preResult, error) {
	v, err := fut.Get(ctx)
	if err != nil {
		return preResult{}, err
	}
	res, err := fleet.ParseGranuleResult(v)
	if err != nil {
		return preResult{}, err
	}
	tiled := res.Started.Add(res.Fetch + res.Extract)
	done := tiled.Add(res.Label + res.Write)
	rc.Health.Beat("preprocess")
	if res.File == "" {
		return preResult{done: done}, nil // night granule or no ocean clouds
	}
	p.recordPreprocess(g, res.File, res.Tiles, res.Started, tiled)
	svc.Published(rc, res.File, res.Labeled, tiled, done)
	return preResult{tiles: res.Tiles, hasFile: true, done: done}, nil
}

// preprocessFleet is the batch form: every granule submitted up front —
// in-flight parallelism is bounded by fleet capacity, not this
// process's worker pool — then collected. Returns (tileFiles,
// tilesProduced).
func (p *Run) preprocessFleet(ctx context.Context, rc *stage.RunContext, svc *stage.InferenceService) (int, int, error) {
	granules := p.cfg.GranuleIDs()
	futs := make([]*fleet.Future, len(granules))
	for i, g := range granules {
		fut, err := p.fleetSubmit(ctx, g)
		if err != nil {
			return 0, 0, fmt.Errorf("granule %d: %w", g.Index, err)
		}
		futs[i] = fut
	}
	files, tiles := 0, 0
	for i, fut := range futs {
		r, err := p.fleetCollect(ctx, rc, svc, granules[i], fut)
		if err != nil {
			return 0, 0, fmt.Errorf("granule %d: %w", granules[i].Index, err)
		}
		tiles += r.tiles
		if r.hasFile {
			files++
		}
		// Tasks still out when the worker finished this one.
		rc.Timeline.Record("preprocess", r.done.Sub(rc.Epoch).Seconds(), len(futs)-(i+1))
	}
	return files, tiles, nil
}
