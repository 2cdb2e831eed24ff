package core

import (
	"context"
	"fmt"

	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/parsl"
	"github.com/eoml/eoml/internal/stage"
)

// RunStream executes the workflow in streaming mode — the paper's §V
// extension to "batch as well as streaming data". Granule indices arrive
// on a channel (as they would from a satellite downlink feed); each
// arrival is downloaded and preprocessed immediately, the monitor/flow
// machinery labels tile files as they appear, and shipment happens once
// the stream closes and the backlog drains.
//
// Unlike Run, preprocessing is NOT delayed until all downloads finish:
// per-granule isolation (atomic writes, per-granule tile files) makes the
// partial-file hazard of the batch design structurally impossible here.
// The monitor+inference machinery and the shipment drain are the same
// stage objects Run composes; only the ingest stage differs.
func (p *Run) RunStream(ctx context.Context, arrivals <-chan int) (*Report, error) {
	rep, rc := p.newReport(0)
	svc := p.inferenceService()
	ship := p.shipment(svc)

	ingest := stage.Func("ingest", func(ctx context.Context, rc *stage.RunContext) error {
		return p.ingestStream(ctx, rc, arrivals, rep, svc)
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
// is downloaded and its preprocessing app submitted to a persistent
// executor; once the stream closes, the preprocessing backlog drains and
// the inference service learns how many tile files to expect.
func (p *Run) ingestStream(ctx context.Context, rc *stage.RunContext, arrivals <-chan int, rep *Report, svc *stage.InferenceService) error {
	exec, err := parsl.NewHTEX(parsl.HTEXConfig{
		Label:          "stream-preprocess",
		WorkersPerNode: p.cfg.PreprocessWorkers,
		InitBlocks:     1,
		MaxBlocks:      1,
		OnWorkerChange: func(busy int) {
			rc.Timeline.Record("preprocess", rc.Since(), busy)
			rc.Health.Beat("preprocess")
		},
	})
	if err != nil {
		return err
	}
	exec.Instrument(p.metrics)
	if err := exec.Start(ctx); err != nil {
		return err
	}
	defer exec.Shutdown(ctx)
	dfk, err := parsl.NewDFK(exec, parsl.DFKConfig{Retries: 1})
	if err != nil {
		return err
	}

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
	var futs []*parsl.AppFuture
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
		// In fleet mode the leased worker fetches the granule ref itself;
		// nothing downloads through this process.
		if p.cfg.Distribution != DistributionFleet {
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
			rc.Health.Beat("download")
			rc.Timeline.Record("download", rc.Since(), 0)
		}
		rc.Health.Beat("download")

		rc.Event("preprocess", stage.EventIn)
		futs = append(futs, dfk.Submit(fmt.Sprintf("stream-tiles[%d]", idx), func(ctx context.Context) (any, error) {
			if p.cfg.Distribution != DistributionFleet {
				return p.preprocessGranule(g, svc.Poke)
			}
			// One granule task; the pool only bounds how many are out.
			fut, err := p.fleetSubmit(ctx, g)
			if err != nil {
				return nil, err
			}
			return p.fleetCollect(ctx, rc, svc, g, fut)
		}))
	}

	// Stream closed: drain preprocessing and publish the expectation.
	expect := 0
	for i, f := range futs {
		v, err := f.Get(ctx)
		if err != nil {
			return fmt.Errorf("preprocess %d: %w", i, err)
		}
		r := v.(preResult)
		rep.TilesProduced += r.tiles
		if r.hasFile {
			expect++
		}
		rc.Event("preprocess", stage.EventOut)
	}
	rep.TileFiles = expect
	svc.ExpectFiles(expect)
	rc.Health.Done("download")
	rc.Health.Done("preprocess")
	return exec.Shutdown(ctx)
}
