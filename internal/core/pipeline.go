package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/parsl"
	"github.com/eoml/eoml/internal/provenance"
	"github.com/eoml/eoml/internal/stage"
	"github.com/eoml/eoml/internal/tensor"
	"github.com/eoml/eoml/internal/tile"
	"github.com/eoml/eoml/internal/trace"
)

// Report summarizes a completed pipeline run.
type Report struct {
	GranulesRequested int
	FilesDownloaded   int
	BytesDownloaded   int64
	TileFiles         int // granules that yielded ocean-cloud tiles
	TilesProduced     int
	TilesLabeled      int
	FilesShipped      int
	FlowsFailed       int // label-and-move flows that errored
	Elapsed           time.Duration

	// Stage telemetry (Fig. 6 / Fig. 7 counterparts for real runs).
	Timeline *trace.Timeline
	Spans    *trace.Spans

	// Metrics is the final registry snapshot, so batch runs keep parity
	// with a live /metrics scrape of a streaming run.
	Metrics []metrics.Family
}

// Run is one isolated execution of the five-stage workflow, built by
// Engine.NewRun. Both execution modes — batch (Run) and streaming
// (RunStream) — are thin drivers over the same stage objects from
// internal/stage, composed in different orders. Every Run owns its own
// metric registry, health tracker, and stage state; the model weights,
// decode arena, and archive quota it uses are the engine's shared ones.
type Run struct {
	cfg     Config
	id      string
	tenant  string
	labeler *aicca.Labeler
	prov    *provenance.Store
	// extract recycles per-granule decode scratch across the concurrent
	// preprocessing workers (one shard per worker in flight); shared
	// engine-wide, so concurrent runs recycle one pool.
	extract *tensor.ShardedArena
	// fleet leases granule tasks to worker processes when
	// cfg.Distribution is "fleet"; nil otherwise.
	fleet   *fleet.Coordinator
	quota   *laads.Quota
	metrics *metrics.Registry
	health  *metrics.Health
}

// Pipeline is the legacy one-shot facade: a single-run Engine. It
// exists so code written against the original one-Pipeline-per-process
// API keeps compiling and behaving byte-identically; everything it does
// is a thin delegation to a Run built the same way the control plane
// builds them — one code path.
type Pipeline struct {
	run *Run
}

// New builds a one-shot pipeline. The labeler may be nil only if the
// config names model and codebook files to load.
func New(cfg Config, labeler *aicca.Labeler) (*Pipeline, error) {
	run, err := NewEngine(EngineOptions{Labeler: labeler}).NewRun(cfg, RunOptions{})
	if err != nil {
		return nil, err
	}
	return &Pipeline{run: run}, nil
}

// Run executes the batch workflow; see Run.Run.
func (p *Pipeline) Run(ctx context.Context) (*Report, error) { return p.run.Run(ctx) }

// RunStream executes the streaming workflow; see Run.RunStream.
func (p *Pipeline) RunStream(ctx context.Context, arrivals <-chan int) (*Report, error) {
	return p.run.RunStream(ctx, arrivals)
}

// SetProvenance attaches a provenance store to the underlying run.
func (p *Pipeline) SetProvenance(store *provenance.Store) { p.run.SetProvenance(store) }

// Metrics returns the underlying run's live metric registry.
func (p *Pipeline) Metrics() *metrics.Registry { return p.run.Metrics() }

// Health returns the underlying run's per-stage liveness tracker.
func (p *Pipeline) Health() *metrics.Health { return p.run.Health() }

// ID returns the control-plane identity of the run (empty for the
// legacy one-shot path).
func (p *Run) ID() string { return p.id }

// Tenant returns the tenant the run is attributed to (may be empty).
func (p *Run) Tenant() string { return p.tenant }

// Config returns the run's validated configuration.
func (p *Run) Config() Config { return p.cfg }

// Metrics returns the run's live metric registry. It implements
// http.Handler (Prometheus text exposition; JSON on request), so
// drivers can mount it directly on /metrics. When the run was built
// with a control-plane ID, every series carries run/tenant labels.
func (p *Run) Metrics() *metrics.Registry { return p.metrics }

// Health returns the run's per-stage liveness tracker. It implements
// http.Handler (200/503 with per-stage JSON), so drivers can mount it
// directly on /healthz.
func (p *Run) Health() *metrics.Health { return p.health }

// newReport builds the report and the shared run context every driver
// hands to the stage orchestrator.
func (p *Run) newReport(granules int) (*Report, *stage.RunContext) {
	rep := &Report{
		GranulesRequested: granules,
		Timeline:          trace.NewTimeline(),
		Spans:             trace.NewSpans(),
	}
	rc := &stage.RunContext{
		Epoch:    time.Now(),
		Timeline: rep.Timeline,
		Spans:    rep.Spans,
		Metrics:  p.metrics,
		Health:   p.health,
		Dirs:     []string{p.cfg.DataDir, p.cfg.TileDir, p.cfg.OutboxDir, p.cfg.DestDir},
	}
	return rep, rc
}

// inferenceService builds the shared monitor+inference stage: crawler,
// flow engine, cross-file batcher, and bounded worker pool, armed at
// setup so labeling overlaps preprocessing (the paper's Fig. 6). The
// local drivers poke it as each granule's tile file lands, so the monitor
// scans then rather than at its next PollInterval tick. Under fleet
// distribution workers publish labeled files themselves and report them
// through Published; the monitor stays armed over TileDir for tile files
// written by anyone else.
func (p *Run) inferenceService() *stage.InferenceService {
	return stage.NewInferenceService(stage.InferenceConfig{
		Labeler:      p.labeler,
		BatchTiles:   p.cfg.BatchTiles,
		Precision:    aicca.Precision(p.cfg.Precision),
		WatchDir:     p.cfg.TileDir,
		PollInterval: p.cfg.PollInterval,
		Workers:      p.cfg.InferenceWorkers,
		OutboxDir:    p.cfg.OutboxDir,
		StallTimeout: p.cfg.StallTimeout,
		OnMoved:      p.recordInference,
	})
}

// shipment builds the stage-5 transfer, skipped when upstream produced
// no tile files.
func (p *Run) shipment(svc *stage.InferenceService) *stage.Shipment {
	return stage.NewShipment(stage.ShipmentConfig{
		SrcDir:    p.cfg.OutboxDir,
		DestDir:   p.cfg.DestDir,
		Skip:      func() bool { return svc.Expected() == 0 },
		OnShipped: p.recordShipment,
	})
}

// finish copies the stage outcomes into the report.
func (p *Run) finish(rep *Report, rc *stage.RunContext, svc *stage.InferenceService, ship *stage.Shipment) {
	rep.TilesLabeled = svc.TilesLabeled()
	rep.FlowsFailed = svc.FlowsFailed()
	rep.FilesShipped = ship.FilesShipped()
	rep.Elapsed = time.Since(rc.Epoch)
	rep.Metrics = p.metrics.Snapshot()
}

// Run executes download → preprocess → monitor/trigger → inference →
// shipment and returns the run report. The inference service arms
// during orchestrator setup, so labeling overlaps preprocessing as in
// the paper's Fig. 6; shipment begins once every tile file is labeled.
func (p *Run) Run(ctx context.Context) (*Report, error) {
	rep, rc := p.newReport(len(p.cfg.GranuleIDs()))
	svc := p.inferenceService()
	ship := p.shipment(svc)

	download := stage.Func("download", func(ctx context.Context, rc *stage.RunContext) error {
		if p.cfg.Distribution == DistributionFleet {
			// Tasks ship granule refs, not bytes: each worker fetches the
			// granules it leases straight from the archive, so no data
			// moves through this process.
			rc.Health.Beat("download")
			rc.Timeline.Record("download", rc.Since(), 0)
			return nil
		}
		rc.EventCounter("download", stage.EventIn).Add(int64(3 * len(p.cfg.GranuleIDs())))
		files, bytes, err := p.downloadViaCompute(ctx, p.cfg.GranuleIDs(), func(active int) {
			rc.Timeline.Record("download", rc.Since(), active)
			rc.Health.Beat("download")
		})
		if err != nil {
			return err
		}
		rep.FilesDownloaded, rep.BytesDownloaded = files, bytes
		rc.EventCounter("download", stage.EventOut).Add(int64(files))
		return nil
	})
	preprocess := stage.Func("preprocess", func(ctx context.Context, rc *stage.RunContext) error {
		rc.EventCounter("preprocess", stage.EventIn).Add(int64(len(p.cfg.GranuleIDs())))
		var files, tiles int
		var err error
		if p.cfg.Distribution == DistributionFleet {
			files, tiles, err = p.preprocessFleet(ctx, rc, svc)
		} else {
			files, tiles, err = p.preprocessBatch(ctx, rc, svc.Poke)
		}
		if err != nil {
			return err
		}
		rep.TileFiles, rep.TilesProduced = files, tiles
		rc.EventCounter("preprocess", stage.EventOut).Add(int64(files))
		svc.ExpectFiles(files)
		return nil
	})

	err := stage.NewOrchestrator(rc).Execute(ctx, download, preprocess, svc, ship)
	p.finish(rep, rc, svc, ship)
	if err != nil {
		// The partial report still carries telemetry and the FlowsFailed
		// count, so callers can see how far the run got.
		return rep, fmt.Errorf("core: %w", err)
	}
	return rep, nil
}

// preprocessBatch runs the Parsl block over every configured granule,
// calling landed as each tile file is in place, and returns (tileFiles,
// tilesProduced).
func (p *Run) preprocessBatch(ctx context.Context, rc *stage.RunContext, landed func()) (int, int, error) {
	exec, err := parsl.NewHTEX(parsl.HTEXConfig{
		Label:          "preprocess",
		WorkersPerNode: p.cfg.PreprocessWorkers,
		InitBlocks:     1,
		MaxBlocks:      1,
		OnWorkerChange: func(busy int) {
			rc.Timeline.Record("preprocess", rc.Since(), busy)
			rc.Health.Beat("preprocess")
		},
	})
	if err != nil {
		return 0, 0, err
	}
	exec.Instrument(p.metrics)
	if err := exec.Start(ctx); err != nil {
		return 0, 0, err
	}
	defer exec.Shutdown(ctx)
	dfk, err := parsl.NewDFK(exec, parsl.DFKConfig{Retries: 1})
	if err != nil {
		return 0, 0, err
	}

	granules := p.cfg.GranuleIDs()
	apps := make([]parsl.App, len(granules))
	for i, g := range granules {
		g := g
		apps[i] = func(ctx context.Context) (any, error) {
			return p.preprocessGranule(g, landed)
		}
	}
	files, tiles := 0, 0
	for i, f := range dfk.Map("tiles", apps) {
		v, err := f.Get(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("granule %d: %w", granules[i].Index, err)
		}
		r := v.(preResult)
		tiles += r.tiles
		if r.hasFile {
			files++
		}
	}
	return files, tiles, exec.Shutdown(ctx)
}

// preResult is the per-granule outcome of the preprocessing app.
type preResult struct {
	tiles   int
	hasFile bool
	done    time.Time // fleet only: when the worker finished the granule
}

// preprocessGranule converts one granule triple into a tile NetCDF and
// calls landed once the file is in place.
func (p *Run) preprocessGranule(g modis.GranuleID, landed func()) (any, error) {
	started := time.Now()
	read := func(kind modis.Kind) (*hdf.File, error) {
		prod := modis.Product{Satellite: g.Satellite, Kind: kind}
		return hdf.ReadFile(filepath.Join(p.cfg.DataDir, modis.FileName(prod, g)))
	}
	mod02, err := read(modis.L1B)
	if err != nil {
		return nil, err
	}
	mod03, err := read(modis.Geo)
	if err != nil {
		return nil, err
	}
	mod06, err := read(modis.Cloud)
	if err != nil {
		return nil, err
	}
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{
		TileSize:     p.cfg.TilePixels,
		MinCloudFrac: p.cfg.MinCloudFrac,
		Arena:        p.extract,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Tiles) == 0 {
		return preResult{}, nil // night granule or no ocean clouds
	}
	path := filepath.Join(p.cfg.TileDir, tile.FileName(g))
	if err := tile.WriteNetCDF(path, res.Tiles); err != nil {
		return nil, err
	}
	landed()
	p.recordPreprocess(g, path, len(res.Tiles), started, time.Now())
	return preResult{tiles: len(res.Tiles), hasFile: true}, nil
}

// Summary renders a one-paragraph report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "granules=%d files=%d bytes=%d tileFiles=%d tiles=%d labeled=%d shipped=%d elapsed=%s",
		r.GranulesRequested, r.FilesDownloaded, r.BytesDownloaded,
		r.TileFiles, r.TilesProduced, r.TilesLabeled, r.FilesShipped, r.Elapsed.Round(time.Millisecond))
	if r.FlowsFailed > 0 {
		fmt.Fprintf(&b, " flowsFailed=%d", r.FlowsFailed)
	}
	return b.String()
}
