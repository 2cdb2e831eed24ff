package core

import (
	"context"
	"fmt"

	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/stage"
)

// RunStream executes the workflow in streaming mode — the paper's §V
// extension to "batch as well as streaming data". Granule indices arrive
// on a channel (as they would from a satellite downlink feed); each
// arrival is handed to the granule driver at once, and the task that
// leases it fetches, tiles, labels and publishes it. Shipment happens
// once the stream closes and the backlog drains. Run is this driver over
// a closed channel of the configured granules.
func (p *Run) RunStream(ctx context.Context, arrivals <-chan int) (*Report, error) {
	rep, rc := p.newReport()
	svc := p.inferenceService()
	ship := p.shipment(svc)
	coord, release := p.coordinator()
	defer release()

	// Fetch and tiling happen in one task, so the paper's download and
	// preprocess stages are one ingest stage, named for the second.
	preprocess := stage.Func("preprocess", func(ctx context.Context, rc *stage.RunContext) error {
		d := p.driver(rc, svc, coord)
		err := p.ingest(ctx, rc, arrivals, rep, d)
		// An early return must not leave collections running past the stage.
		if werr := d.wait(rep); err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
		svc.ExpectFiles(rep.TileFiles)
		rc.Health.Done("download")
		return nil
	})

	err := stage.NewOrchestrator(rc).Execute(ctx, preprocess, svc, ship)
	p.finish(rep, rc, svc, ship)
	if err != nil {
		// Partial report: telemetry and counts up to the failure point.
		return rep, fmt.Errorf("core: %w", err)
	}
	return rep, nil
}

// ingest submits each arriving granule until the feed closes.
func (p *Run) ingest(ctx context.Context, rc *stage.RunContext, arrivals <-chan int, rep *Report, d *granuleDriver) error {
	// The paper's download stage lives inside each granule task; register
	// its series eagerly so a /metrics scrape covers all five stages.
	rc.EventCounter("download", stage.EventIn)
	rc.EventCounter("download", stage.EventOut)
	rc.Health.Watch("download", 0)
	for {
		var idx int
		var open bool
		select {
		case idx, open = <-arrivals:
		case <-ctx.Done():
			return ctx.Err()
		}
		if !open {
			return nil
		}
		if idx < 0 || idx >= modis.GranulesPerDay {
			return fmt.Errorf("granule index %d out of range", idx)
		}
		rep.GranulesRequested++
		d.submit(ctx, modis.GranuleID{Satellite: p.cfg.Satellite, Year: p.cfg.Year, DOY: p.cfg.DOY, Index: idx})
	}
}
