package core

import (
	"context"
	"fmt"

	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/stage"
)

// RunStream executes the workflow in streaming mode — the paper's §V
// extension to "batch as well as streaming data". Granule indices arrive
// on a channel (as they would from a satellite downlink feed); each
// arrival is downloaded and handed to the granule driver immediately,
// and shipment happens once the stream closes and the backlog drains.
//
// Unlike Run, preprocessing is NOT delayed until all downloads finish:
// per-granule isolation (atomic writes, per-granule files) makes the
// partial-file hazard of the batch design structurally impossible here.
// The inference service, the shipment drain and the granule driver are
// the ones Run composes; only the ingest stage differs.
func (p *Run) RunStream(ctx context.Context, arrivals <-chan int) (*Report, error) {
	rep, rc := p.newReport(0)
	svc := p.inferenceService()
	ship := p.shipment(svc)
	coord, release := p.coordinator()
	defer release()

	ingest := stage.Func("ingest", func(ctx context.Context, rc *stage.RunContext) error {
		return p.ingestStream(ctx, rc, arrivals, rep, p.driver(rc, svc, coord))
	})

	err := stage.NewOrchestrator(rc).Execute(ctx, ingest, svc, ship)
	p.finish(rep, rc, svc, ship)
	if err != nil {
		// Partial report: telemetry and counts up to the failure point.
		return rep, fmt.Errorf("core: stream: %w", err)
	}
	return rep, nil
}

// ingestStream consumes the arrival feed: each granule's product triple
// is downloaded (unless the fleet's workers fetch it) and the granule
// submitted; once the stream closes, the backlog drains and the
// inference service learns how many files to expect.
func (p *Run) ingestStream(ctx context.Context, rc *stage.RunContext, arrivals <-chan int, rep *Report, d *granuleDriver) error {
	// The paper's download and preprocess stages live inside this one
	// ingest stage in streaming mode; register their series eagerly so a
	// streaming /metrics scrape covers all five stages.
	for _, name := range []string{"download", "preprocess"} {
		rc.EventCounter(name, stage.EventIn)
		rc.EventCounter(name, stage.EventOut)
		rc.Health.Watch(name, 0)
	}

	client := laads.NewClient(p.cfg.ArchiveURL, p.cfg.ArchiveToken)
	client.Quota = p.quota
	client.Instrument(p.metrics)
	// An early return must not leave collections running past the stage.
	defer d.wait()
	for open := true; open; {
		var idx int
		select {
		case idx, open = <-arrivals:
			if !open {
				continue
			}
		case <-ctx.Done():
			return ctx.Err()
		}
		if idx < 0 || idx >= modis.GranulesPerDay {
			return fmt.Errorf("granule index %d out of range", idx)
		}
		g := modis.GranuleID{Satellite: p.cfg.Satellite, Year: p.cfg.Year, DOY: p.cfg.DOY, Index: idx}
		rep.GranulesRequested++
		if !p.workersFetch() {
			rc.Timeline.Record("download", rc.Since(), 1)
			var tasks []laads.Task
			for _, prod := range p.cfg.Products() {
				tasks = append(tasks, laads.Task{Product: prod, Year: g.Year, DOY: g.DOY, Name: modis.FileName(prod, g)})
			}
			rc.EventCounter("download", stage.EventIn).Add(int64(len(tasks)))
			dlRep, err := client.DownloadAll(ctx, tasks, p.cfg.DataDir, p.cfg.DownloadWorkers)
			if err != nil {
				return fmt.Errorf("download granule %d: %w", idx, err)
			}
			rep.FilesDownloaded += len(dlRep.Files)
			rep.BytesDownloaded += dlRep.TotalBytes
			rc.EventCounter("download", stage.EventOut).Add(int64(len(dlRep.Files)))
			rc.Timeline.Record("download", rc.Since(), 0)
		}
		rc.Health.Beat("download")
		d.submit(ctx, g)
	}

	// Stream closed: drain the backlog and publish the expectation.
	files, tiles, err := d.wait()
	if err != nil {
		return err
	}
	rep.TileFiles, rep.TilesProduced = files, tiles
	d.svc.ExpectFiles(files)
	rc.Health.Done("download")
	rc.Health.Done("preprocess")
	return nil
}
