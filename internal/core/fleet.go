package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/stage"
)

// coordinator returns the fleet this call leases granules to and the
// function that releases it: the engine's worker fleet for a `fleet`
// run, else an in-process fleet of one — this process, running the
// engine's granule kernel on PreprocessWorkers slots — instrumented into
// the run's registry and closed when the call returns.
func (p *Run) coordinator() (*fleet.Coordinator, func()) {
	if p.fleet != nil {
		return p.fleet, func() {}
	}
	c := fleet.NewInProcess(p.kernels, p.cfg.PreprocessWorkers)
	c.Instrument(p.metrics)
	return c, c.Close
}

// workersFetch is the one place a run's distribution decides who fills
// DataDir. Remote workers fetch each granule they lease straight from
// the archive, so no data moves through this process; a local run keeps
// the paper's order — stage 1 downloads, then the kernel reads DataDir
// (it fetches only what is missing there, which is nothing).
func (p *Run) workersFetch() bool { return p.cfg.Distribution == DistributionFleet }

// granuleDriver is the one way a run hands granules to a fleet, shared
// by Run and RunStream: one task per granule, in which the leasing
// worker fetches, tiles, labels and publishes the labeled file into
// OutboxDir. Nothing else is submitted for a granule, so no labeled
// product waits behind another granule's preprocessing, and no tile file
// of the run's own ever passes through TileDir.
type granuleDriver struct {
	p     *Run
	rc    *stage.RunContext
	svc   *stage.InferenceService
	coord *fleet.Coordinator
	wg    sync.WaitGroup

	mu sync.Mutex
	// out counts submitted granules not yet collected. guarded by mu
	out int
	// files and tiles total the collected granules' output. guarded by mu
	files, tiles int
	// err is the first granule failure. guarded by mu
	err error
}

func (p *Run) driver(rc *stage.RunContext, svc *stage.InferenceService, coord *fleet.Coordinator) *granuleDriver {
	return &granuleDriver{p: p, rc: rc, svc: svc, coord: coord}
}

// submit leases g and collects it in the background. Tasks ship granule
// refs — paths on shared storage plus archive coordinates, so a worker
// without the run's data directory fetches inputs itself — and the
// model refs to label with. In-flight parallelism is bounded by fleet
// capacity, not by this process.
func (d *granuleDriver) submit(ctx context.Context, g modis.GranuleID) {
	d.rc.Event("preprocess", stage.EventIn)
	cfg := d.p.cfg
	args, err := fleet.GranuleArgs{
		Satellite:    g.Satellite.String(),
		Year:         g.Year,
		DOY:          g.DOY,
		Index:        g.Index,
		DataDir:      cfg.DataDir,
		OutboxDir:    cfg.OutboxDir,
		TilePixels:   cfg.TilePixels,
		MinCloudFrac: cfg.MinCloudFrac,
		Model:        cfg.ModelPath,
		Codebook:     cfg.CodebookPath,
		Precision:    cfg.Precision,
		ArchiveURL:   cfg.ArchiveURL,
		ArchiveToken: cfg.ArchiveToken,
	}.Args()
	var fut *fleet.Future
	if err == nil {
		fut, err = d.coord.Submit(ctx, fleet.GranuleFunction, args)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.fail(g, err)
		return
	}
	d.out++
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.collect(ctx, g, fut)
	}()
}

// fail records a granule failure; the first one is the run's. Callers
// hold mu.
func (d *granuleDriver) fail(g modis.GranuleID, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("granule %d: %w", g.Index, err)
	}
}

// collect waits for g's task and books its outcome: lineage, and the
// published file against the inference service's completion count. Both
// use the phase times the worker reports, not when this process happened
// to collect the result (worker and run clocks are assumed synchronized,
// as any multi-facility provenance record assumes).
func (d *granuleDriver) collect(ctx context.Context, g modis.GranuleID, fut *fleet.Future) {
	v, err := fut.Get(ctx)
	var res fleet.GranuleResult
	if err == nil {
		res, err = fleet.ParseGranuleResult(v)
	}
	var tiled, done time.Time
	if err == nil {
		tiled = res.Started.Add(res.Fetch + res.Extract)
		done = tiled.Add(res.Label + res.Write)
		d.rc.Health.Beat("preprocess")
		if res.File != "" {
			d.p.recordPreprocess(g, res.File, res.Tiles, res.Started, tiled)
			d.svc.Published(d.rc, res.File, res.Labeled, tiled, done)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.out--
	if err != nil {
		d.fail(g, err)
		return
	}
	d.rc.Event("preprocess", stage.EventOut)
	d.tiles += res.Tiles
	if res.File != "" {
		d.files++
	}
	// Tasks still out when the worker finished this one.
	d.rc.Timeline.Record("preprocess", done.Sub(d.rc.Epoch).Seconds(), d.out)
}

// wait joins every collection and returns (tileFiles, tilesProduced) and
// the first granule failure.
func (d *granuleDriver) wait() (int, int, error) {
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.files, d.tiles, d.err
}
