// Package eoml is a multi-facility workflow system for AI applications in
// climate research — a from-scratch Go reproduction of the EO-ML workflow
// of Kurihana, Skluzacek, Ferreira da Silva, and Anantharaj (SC 2024):
// automated download of MODIS satellite products, parallel decomposition
// of swaths into ocean-cloud tiles, rotation-invariant autoencoder
// inference assigning AICCA cloud classes, and checksum-verified shipment
// of labeled NetCDF files to a destination facility.
//
// The package is a facade over the subsystems in internal/: a LAADS DAAC
// archive simulator served over real HTTP, Globus Compute/Flows/Transfer
// analogs, a Parsl-like dataflow kernel, a NetCDF-3 codec, the RICC
// autoencoder and agglomerative clustering stack, and a discrete-event
// simulator that regenerates every figure and table of the paper's
// evaluation.
//
// Quickstart:
//
//	cfg := eoml.DefaultConfig()
//	cfg.ArchiveURL = archiveURL // e.g. a local `laads-server`
//	cfg.DataDir, cfg.TileDir, cfg.OutboxDir, cfg.DestDir = ...
//	cfg.Granules = []int{144, 150}
//
//	labeler, _ := eoml.TrainFromArchive(ctx, cfg, eoml.TrainOptions{Classes: 8})
//	pipe, _ := eoml.NewPipeline(cfg, labeler)
//	report, _ := pipe.Run(ctx)
//	fmt.Println(report.Summary())
package eoml

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/serve"
	"github.com/eoml/eoml/internal/tile"
)

// Config declares one workflow run; see core.Config for field docs.
type Config = core.Config

// Report is the outcome of a pipeline run.
type Report = core.Report

// Pipeline is the five-stage workflow executor.
type Pipeline = core.Pipeline

// Labeler pairs the trained RICC model with the AICCA centroid codebook.
type Labeler = aicca.Labeler

// Tile is one ocean-cloud tile record.
type Tile = tile.Tile

// DefaultConfig returns a runnable baseline configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// LoadConfig parses a YAML workflow declaration.
func LoadConfig(data []byte) (*Config, error) { return core.LoadConfig(data) }

// LoadConfigFile reads a YAML workflow declaration from disk.
func LoadConfigFile(path string) (*Config, error) { return core.LoadConfigFile(path) }

// NewPipeline builds a pipeline for the config. labeler may be nil when
// the config names model and codebook files.
func NewPipeline(cfg Config, labeler *Labeler) (*Pipeline, error) {
	return core.New(cfg, labeler)
}

// Engine hosts N isolated workflow runs in one process, sharing model
// weights and per-tenant archive quotas across them.
type Engine = core.Engine

// EngineOptions tunes a new Engine.
type EngineOptions = core.EngineOptions

// Run is one isolated execution built by Engine.NewRun.
type Run = core.Run

// RunOptions carries the per-run identity the control plane assigns.
type RunOptions = core.RunOptions

// NewEngine builds a multi-run engine.
func NewEngine(opts EngineOptions) *Engine { return core.NewEngine(opts) }

// QuotaPool hands out per-tenant archive-request token buckets.
type QuotaPool = laads.QuotaPool

// NewQuotaPool builds a quota pool granting each tenant requestsPerSec
// with the given burst; requestsPerSec <= 0 disables quotas (nil pool).
func NewQuotaPool(requestsPerSec float64, burst int) *QuotaPool {
	return laads.NewQuotaPool(requestsPerSec, burst)
}

// ControlPlane is the HTTP run API over an Engine: POST configs in,
// run IDs out, with per-run and aggregate observability endpoints.
type ControlPlane = serve.Server

// ControlPlaneOptions tunes a ControlPlane.
type ControlPlaneOptions = serve.Options

// NewControlPlane builds the run API handler over an engine.
func NewControlPlane(eng *Engine, opts ControlPlaneOptions) *ControlPlane {
	return serve.New(eng, opts)
}

// TenantHeader names the HTTP header carrying the submitting tenant.
const TenantHeader = serve.TenantHeader

// FleetCoordinator leases granule tasks (one per granule) to registered
// eoml-worker processes: heartbeat liveness, in-flight bounds, lease
// requeue, work stealing, and elastic scale hints.
type FleetCoordinator = fleet.Coordinator

// FleetConfig tunes a FleetCoordinator.
type FleetConfig = fleet.Config

// NewFleetCoordinator builds a worker-fleet coordinator. Pass it to
// EngineOptions.Fleet so runs can declare `distribution: fleet`, and
// call Start to run its liveness sweep.
func NewFleetCoordinator(cfg FleetConfig) *FleetCoordinator {
	return fleet.NewCoordinator(cfg)
}

// FleetWorker is one worker process runtime: it serves the granule
// kernel (fetch, tile, label, publish) over HTTP, running each leased
// task inside the one request that leased it, and registers and
// heartbeats with the coordinator. cmd/eoml-worker is a thin main
// around it.
type FleetWorker = fleet.Worker

// FleetWorkerConfig tunes a FleetWorker.
type FleetWorkerConfig = fleet.WorkerConfig

// NewFleetWorker builds a fleet worker; Start makes it live.
func NewFleetWorker(cfg FleetWorkerConfig) (*FleetWorker, error) {
	return fleet.NewWorker(cfg)
}

// ArchiveOptions tunes a simulated LAADS DAAC archive server.
type ArchiveOptions struct {
	// ScaleDown divides granule resolution (1 = full 2030×1354 swaths).
	ScaleDown int
	// Token, when set, is required as a Bearer token.
	Token string
	// PerConnBytesPerSec / AggregateBytesPerSec shape bandwidth; 0 = off.
	PerConnBytesPerSec   int64
	AggregateBytesPerSec int64
}

// NewArchiveServer returns an http.Handler serving a synthetic MODIS
// archive with LAADS-style listing and download endpoints.
func NewArchiveServer(opts ArchiveOptions) (http.Handler, error) {
	return laads.NewServer(laads.ServerConfig{
		ScaleDown:            opts.ScaleDown,
		Token:                opts.Token,
		PerConnBytesPerSec:   opts.PerConnBytesPerSec,
		AggregateBytesPerSec: opts.AggregateBytesPerSec,
	})
}

// TrainOptions tunes TrainFromArchive.
type TrainOptions struct {
	// Granules to train on; defaults to the run's configured granules.
	Granules []int
	// Classes is the codebook size (42 for full AICCA; smaller for
	// container-scale runs). Default 8.
	Classes int
	// Epochs of autoencoder training. Default 4.
	Epochs int
	// LatentDim of the embedding. Default 32.
	LatentDim int
	// Seed for deterministic weights and shuffling.
	Seed int64
}

// TrainFromArchive performs the paper's offline stages — data
// acquisition, RICC training, clustering — against the configured
// archive: it downloads the training granules, extracts ocean-cloud
// tiles, fits the rotation-invariant autoencoder, and clusters the
// latents into the AICCA codebook.
func TrainFromArchive(ctx context.Context, cfg Config, opts TrainOptions) (*Labeler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Classes <= 0 {
		opts.Classes = 8
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 4
	}
	if opts.LatentDim <= 0 {
		opts.LatentDim = 32
	}
	indices := opts.Granules
	if len(indices) == 0 {
		indices = cfg.Granules
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("eoml: training needs granule indices")
	}

	trainDir, err := os.MkdirTemp("", "eoml-train-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(trainDir)

	client := laads.NewClient(cfg.ArchiveURL, cfg.ArchiveToken)
	var tasks []laads.Task
	var granules []modis.GranuleID
	for _, idx := range indices {
		g := modis.GranuleID{Satellite: cfg.Satellite, Year: cfg.Year, DOY: cfg.DOY, Index: idx}
		granules = append(granules, g)
		for _, prod := range cfg.Products() {
			tasks = append(tasks, laads.Task{Product: prod, Year: g.Year, DOY: g.DOY, Name: modis.FileName(prod, g)})
		}
	}
	if _, err := client.DownloadAll(ctx, tasks, trainDir, cfg.DownloadWorkers); err != nil {
		return nil, fmt.Errorf("eoml: training download: %w", err)
	}

	var tiles []*tile.Tile
	for _, g := range granules {
		read := func(kind modis.Kind) (*hdf.File, error) {
			prod := modis.Product{Satellite: g.Satellite, Kind: kind}
			return hdf.ReadFile(filepath.Join(trainDir, modis.FileName(prod, g)))
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
			TileSize:     cfg.TilePixels,
			MinCloudFrac: cfg.MinCloudFrac,
		})
		if err != nil {
			return nil, err
		}
		tiles = append(tiles, res.Tiles...)
	}
	if len(tiles) < opts.Classes {
		return nil, fmt.Errorf("eoml: only %d training tiles for %d classes; add granules", len(tiles), opts.Classes)
	}

	rcfg := ricc.DefaultConfig()
	rcfg.TileSize = cfg.TilePixels
	rcfg.Channels = len(modis.AICCABands)
	rcfg.LatentDim = opts.LatentDim
	rcfg.Epochs = opts.Epochs
	if opts.Seed != 0 {
		rcfg.Seed = opts.Seed
	}
	labeler, _, err := aicca.Train(tiles, rcfg, opts.Classes)
	if err != nil {
		return nil, err
	}
	return labeler, nil
}

// SaveLabeler persists the model and codebook.
func SaveLabeler(l *Labeler, modelPath, codebookPath string) error {
	if err := l.Model.Save(modelPath); err != nil {
		return err
	}
	return l.Codebook.Save(codebookPath)
}

// LoadLabeler restores a labeler saved with SaveLabeler.
func LoadLabeler(modelPath, codebookPath string) (*Labeler, error) {
	m, err := ricc.Load(modelPath)
	if err != nil {
		return nil, err
	}
	cb, err := ricc.LoadCodebook(codebookPath)
	if err != nil {
		return nil, err
	}
	return aicca.NewLabeler(m, cb)
}

// FindDayGranules scans the configured day for granule slots whose
// preprocessing would yield at least minTiles ocean-cloud tiles at the
// given archive resolution, returning up to want indices. Granule
// synthesis is deterministic, so this local scan agrees exactly with what
// the archive serves — it replaces the manual "pick a good swath" step a
// scientist would do against real LAADS listings.
func FindDayGranules(cfg Config, scaleDown, want, minTiles int) ([]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := modis.NewGenerator(scaleDown)
	if err != nil {
		return nil, err
	}
	var out []int
	for idx := 0; idx < modis.GranulesPerDay && len(out) < want; idx++ {
		g := modis.GranuleID{Satellite: cfg.Satellite, Year: cfg.Year, DOY: cfg.DOY, Index: idx}
		mod02, err := gen.Generate(modis.Product{Satellite: cfg.Satellite, Kind: modis.L1B}, g)
		if err != nil {
			return nil, err
		}
		if flag, _ := mod02.AttrString("DayNightFlag"); flag != "Day" {
			continue
		}
		mod03, err := gen.Generate(modis.Product{Satellite: cfg.Satellite, Kind: modis.Geo}, g)
		if err != nil {
			return nil, err
		}
		mod06, err := gen.Generate(modis.Product{Satellite: cfg.Satellite, Kind: modis.Cloud}, g)
		if err != nil {
			return nil, err
		}
		res, err := tile.Extract(mod02, mod03, mod06, tile.Options{
			TileSize:     cfg.TilePixels,
			MinCloudFrac: cfg.MinCloudFrac,
		})
		if err != nil {
			return nil, err
		}
		if len(res.Tiles) >= minTiles {
			out = append(out, idx)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eoml: no productive granules on %d-%03d", cfg.Year, cfg.DOY)
	}
	return out, nil
}

// ReadTiles loads a tile NetCDF file (e.g. a shipped, labeled product).
func ReadTiles(path string) ([]*Tile, error) { return tile.ReadNetCDF(path) }

// ClassAtlas aggregates per-class physical statistics from labeled tiles.
func ClassAtlas(tiles []*Tile) []aicca.ClassStats { return aicca.Atlas(tiles) }

// GeoCell is one cell of a class-occurrence map.
type GeoCell = aicca.GeoCell

// GeoHistogram grids labeled tiles into cellDeg-degree cells with
// per-class occurrence counts — the spatial analysis AICCA publishes.
func GeoHistogram(tiles []*Tile, cellDeg float64) ([]GeoCell, error) {
	return aicca.GeoHistogram(tiles, cellDeg)
}
