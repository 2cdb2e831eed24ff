package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/stage"
)

// coordinator returns the fleet this call leases granules to and the
// function that releases it: the engine's worker fleet for a `fleet`
// run, else an in-process fleet of one (PreprocessWorkers compute slots,
// DownloadWorkers leases fetching ahead), instrumented into the run's
// registry and closed when the call returns. Its kernel fetches through
// the run's own archive client: the tenant's quota, the run's registry.
func (p *Run) coordinator() (*fleet.Coordinator, func()) {
	if p.fleet != nil {
		return p.fleet, func() {}
	}
	client := laads.NewClient(p.cfg.ArchiveURL, p.cfg.ArchiveToken)
	client.Quota = p.quota
	client.Instrument(p.metrics)
	c := fleet.NewInProcess(p.kernels, p.cfg.PreprocessWorkers, p.cfg.DownloadWorkers, client)
	c.Instrument(p.metrics)
	return c, c.Close
}

// granuleDriver is the one way a run hands granules to a fleet: one task
// per granule, in which the leasing worker fetches whatever DataDir
// lacks, tiles, labels and publishes the labeled file into OutboxDir.
// Nothing else is submitted for a granule, so no labeled product waits
// behind another granule's download or preprocessing, and no tile file
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
	// tileFiles and tiles total the collected granules' output, files
	// and bytes their archive fetches. guarded by mu
	tileFiles, tiles, files int
	bytes                   int64
	// starts and ends bound each collected granule's fetch phase, in
	// seconds since the run epoch. guarded by mu
	starts, ends []float64
	// err is the first granule failure. guarded by mu
	err error
}

func (p *Run) driver(rc *stage.RunContext, svc *stage.InferenceService, coord *fleet.Coordinator) *granuleDriver {
	return &granuleDriver{p: p, rc: rc, svc: svc, coord: coord}
}

// submit leases g and collects it in the background. Tasks ship granule
// refs — shared-storage paths plus archive coordinates — and model refs;
// in-flight parallelism is bounded by fleet capacity, not this process.
func (d *granuleDriver) submit(ctx context.Context, g modis.GranuleID) {
	cfg := d.p.cfg
	d.rc.EventCounter("download", stage.EventIn).Add(int64(len(cfg.Products())))
	d.rc.Event("preprocess", stage.EventIn)
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

// collect waits for g's task and books its outcome — what it fetched,
// lineage, the published file — at the phase times the worker reports,
// not when this process happened to collect it (worker and run clocks
// are assumed synchronized, as any multi-facility provenance record
// assumes).
func (d *granuleDriver) collect(ctx context.Context, g modis.GranuleID, fut *fleet.Future) {
	v, err := fut.Get(ctx)
	var res fleet.GranuleResult
	if err == nil {
		res, err = fleet.ParseGranuleResult(v)
	}
	var fetched, tiled, done time.Time
	if err == nil {
		fetched = res.Started.Add(res.Fetch)
		tiled = fetched.Add(res.Extract)
		done = tiled.Add(res.Label + res.Write)
		d.rc.Health.Beat("preprocess")
		if res.File != "" {
			d.p.recordPreprocess(g, res.File, res.Tiles, fetched, tiled)
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
	d.rc.EventCounter("download", stage.EventOut).Add(int64(res.FetchedFiles))
	d.rc.Event("preprocess", stage.EventOut)
	d.files += res.FetchedFiles
	d.bytes += res.FetchedBytes
	d.starts = append(d.starts, d.since(res.Started))
	d.ends = append(d.ends, d.since(fetched))
	d.tiles += res.Tiles
	if res.File != "" {
		d.tileFiles++
	}
	// Tasks still out when the worker finished this one.
	d.rc.Timeline.Record("preprocess", d.since(done), d.out)
}

// since converts a worker-reported instant to seconds since the run epoch.
func (d *granuleDriver) since(t time.Time) float64 { return t.Sub(d.rc.Epoch).Seconds() }

// wait joins every collection, books the collected granules' output and
// archive fetches into rep, draws the timeline's download row from their
// fetch phases, and returns the first granule failure.
func (d *granuleDriver) wait(rep *Report) error {
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	rep.TileFiles, rep.TilesProduced = d.tileFiles, d.tiles
	rep.FilesDownloaded, rep.BytesDownloaded = d.files, d.bytes
	// The row counts granules in their fetch phase (starts seen minus
	// ends seen), stepping at each start and end in time order.
	sort.Float64s(d.starts)
	sort.Float64s(d.ends)
	for i, j := 0, 0; j < len(d.ends); {
		if i < len(d.starts) && d.starts[i] < d.ends[j] {
			i++
			d.rc.Timeline.Record("download", d.starts[i-1], i-j)
		} else {
			j++
			d.rc.Timeline.Record("download", d.ends[j-1], i-j)
		}
	}
	return d.err
}
