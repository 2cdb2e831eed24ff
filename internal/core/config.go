// Package core orchestrates the real-mode EO-ML workflow: the five-stage
// pipeline of the paper (download → preprocess → monitor & trigger →
// inference → shipment) executed against actual bytes — a LAADS-style
// archive over HTTP, HDF-lite granules on disk, one fleet task per
// granule doing real tile extraction and labeling (in-process or on
// worker processes), a Globus-Flows-style inference flow for tile files
// other writers drop in, and a checksum-verified transfer to the
// destination filesystem.
//
// Users declare a run in a YAML file (parsed by internal/yamlite), just
// as the paper's users configure their queries, endpoints, products, and
// time spans.
package core

import (
	"fmt"
	"os"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/yamlite"
)

// Config declares one workflow run.
type Config struct {
	// Observation selection.
	Satellite modis.Satellite
	Year      int
	DOY       int
	// Granules selects five-minute slots (0..287); empty means the whole
	// day.
	Granules []int

	// Archive access.
	ArchiveURL   string
	ArchiveToken string

	// Directories (created if missing).
	DataDir   string // downloaded granules
	TileDir   string // preprocessed tile NetCDF files
	OutboxDir string // labeled files staged for shipment
	DestDir   string // destination filesystem ("Orion")

	// Stage parallelism (the paper's Fig. 6 run uses 3 / 32 / 1).
	// PreprocessWorkers is the compute-slot count of a local run's
	// in-process fleet; DownloadWorkers is how many more granule tasks it
	// leases, fetching their inputs while every slot is busy.
	DownloadWorkers   int
	PreprocessWorkers int
	// InferenceWorkers bounds concurrent label-and-move flows over tile
	// files the monitor finds in TileDir. A run's own granules are
	// labeled inside their granule task and never pass through these
	// flows; the pool serves only tile files other writers drop into
	// TileDir.
	InferenceWorkers int

	// Tile extraction.
	TilePixels   int // tile edge in granule pixels
	MinCloudFrac float64

	// Monitor: the crawler's scan period over TileDir. Only tile files
	// other writers drop there go through the monitor; a run's own
	// granules never wait for it.
	PollInterval time.Duration

	// StallTimeout caps how long the run waits for inference to catch up
	// with the expected tile-file count before declaring a stall.
	StallTimeout time.Duration

	// Inference batching: tiles from watched files (external tile files
	// in TileDir) that queue up behind a running encode are coalesced into
	// the next one, up to BatchTiles.
	BatchTiles int
	// Deprecated: BatchDelay (batch.delay_ms) is accepted and ignored
	// since PR 13 — an idle encoder takes a file at once, so there is no
	// batch window. Any value validates. It stays only because the
	// granule benchmark's batcher probe still reads it; it goes with
	// that probe.
	BatchDelay time.Duration

	// Precision selects the encode arithmetic for inference: "float32"
	// (the default, full-precision GEMM) or "int8" (symmetric quantized
	// GEMM — faster, with a test-pinned label-flip bound).
	Precision string

	// Model artifacts; when both are set the labeler is loaded from disk
	// instead of being supplied programmatically.
	ModelPath    string
	CodebookPath string

	// MetricsAddr, when non-empty, is the host:port cmd/eoml serves
	// /metrics and /healthz on for the lifetime of the run.
	MetricsAddr string

	// Distribution selects where each granule's task — fetch what DataDir
	// lacks, read, tile, label, write the labeled file straight into
	// OutboxDir — executes: "local" (default — an in-process fleet of one
	// with PreprocessWorkers compute slots and DownloadWorkers leases
	// fetching ahead) or "fleet" (leased to registered eoml-worker
	// processes via the engine's fleet coordinator). Either way nothing
	// of the run's own lands in TileDir. Fleet mode requires model and
	// codebook paths, since workers load weights from shared storage.
	Distribution string
}

// Distribution modes.
const (
	DistributionLocal = "local"
	DistributionFleet = "fleet"
)

// DefaultConfig returns a runnable baseline (archive URL and directories
// must still be set).
func DefaultConfig() Config {
	return Config{
		Satellite:         modis.Terra,
		Year:              2022,
		DOY:               1,
		DownloadWorkers:   3,
		PreprocessWorkers: 8,
		InferenceWorkers:  1,
		TilePixels:        16,
		MinCloudFrac:      0.3,
		PollInterval:      50 * time.Millisecond,
		StallTimeout:      5 * time.Minute,
		BatchTiles:        256,
		BatchDelay:        20 * time.Millisecond,
		Precision:         string(aicca.PrecisionFloat32),
		Distribution:      DistributionLocal,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Year < 2000 || c.Year > 2100 {
		return fmt.Errorf("core: year %d out of range", c.Year)
	}
	if c.DOY < 1 || c.DOY > 366 {
		return fmt.Errorf("core: day-of-year %d out of range", c.DOY)
	}
	for _, g := range c.Granules {
		if g < 0 || g >= modis.GranulesPerDay {
			return fmt.Errorf("core: granule index %d out of range", g)
		}
	}
	if c.ArchiveURL == "" {
		return fmt.Errorf("core: archive URL required")
	}
	for name, dir := range map[string]string{
		"data": c.DataDir, "tile": c.TileDir, "outbox": c.OutboxDir, "dest": c.DestDir,
	} {
		if dir == "" {
			return fmt.Errorf("core: %s directory required", name)
		}
	}
	if c.DownloadWorkers <= 0 || c.PreprocessWorkers <= 0 || c.InferenceWorkers <= 0 {
		return fmt.Errorf("core: worker counts must be positive")
	}
	if c.TilePixels < 4 {
		return fmt.Errorf("core: tile pixels %d too small", c.TilePixels)
	}
	if c.MinCloudFrac < 0 || c.MinCloudFrac > 1 {
		return fmt.Errorf("core: cloud fraction %v out of [0,1]", c.MinCloudFrac)
	}
	if c.PollInterval <= 0 {
		return fmt.Errorf("core: poll interval must be positive")
	}
	if c.StallTimeout <= 0 {
		return fmt.Errorf("core: stall timeout must be positive")
	}
	if c.BatchTiles <= 0 {
		return fmt.Errorf("core: batch tiles must be positive")
	}
	if _, err := aicca.ParsePrecision(c.Precision); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	switch c.Distribution {
	case "", DistributionLocal:
	case DistributionFleet:
		if c.ModelPath == "" || c.CodebookPath == "" {
			return fmt.Errorf("core: distribution %q requires model.weights and model.codebook (workers load artifacts from shared storage)", c.Distribution)
		}
	default:
		return fmt.Errorf("core: unknown distribution %q (want %q or %q)", c.Distribution, DistributionLocal, DistributionFleet)
	}
	return nil
}

// Products returns the three products the pipeline downloads.
func (c *Config) Products() []modis.Product {
	return []modis.Product{
		{Satellite: c.Satellite, Kind: modis.L1B},
		{Satellite: c.Satellite, Kind: modis.Geo},
		{Satellite: c.Satellite, Kind: modis.Cloud},
	}
}

// GranuleIDs expands the configured granule selection.
func (c *Config) GranuleIDs() []modis.GranuleID {
	indices := c.Granules
	if len(indices) == 0 {
		indices = make([]int, modis.GranulesPerDay)
		for i := range indices {
			indices[i] = i
		}
	}
	out := make([]modis.GranuleID, 0, len(indices))
	for _, idx := range indices {
		out = append(out, modis.GranuleID{Satellite: c.Satellite, Year: c.Year, DOY: c.DOY, Index: idx})
	}
	return out
}

// LoadConfig parses a YAML workflow declaration. Example:
//
//	satellite: Terra
//	year: 2022
//	doy: 1
//	granules: [144, 150, 156]
//	archive:
//	  url: http://localhost:8900
//	  token: secret
//	paths:
//	  data: /scratch/eoml/data
//	  tiles: /scratch/eoml/tiles
//	  outbox: /scratch/eoml/outbox
//	  dest: /orion/eoml
//	workers:
//	  download: 3
//	  preprocess: 32
//	  inference: 1
//	tile:
//	  pixels: 16
//	  min_cloud_fraction: 0.3
//	poll_interval_ms: 50
//	stall_timeout_ms: 300000
//	batch:
//	  tiles: 256
//	  delay_ms: 20   # deprecated, ignored since PR 13
//	precision: float32
//	model:
//	  weights: model.hdf
//	  codebook: codebook.hdf
//	metrics_addr: localhost:9090
func LoadConfig(data []byte) (*Config, error) {
	doc, err := yamlite.ParseMap(data)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()

	if v, ok := doc["satellite"].(string); ok {
		switch v {
		case "Terra", "terra":
			cfg.Satellite = modis.Terra
		case "Aqua", "aqua":
			cfg.Satellite = modis.Aqua
		default:
			return nil, fmt.Errorf("core: unknown satellite %q", v)
		}
	}
	if v, ok := doc["year"].(int64); ok {
		cfg.Year = int(v)
	}
	if v, ok := doc["doy"].(int64); ok {
		cfg.DOY = int(v)
	}
	if list, ok := doc["granules"].([]any); ok {
		for _, item := range list {
			n, ok := item.(int64)
			if !ok {
				return nil, fmt.Errorf("core: granule index %v is not an integer", item)
			}
			cfg.Granules = append(cfg.Granules, int(n))
		}
	}
	if m, ok := doc["archive"].(map[string]any); ok {
		if v, ok := m["url"].(string); ok {
			cfg.ArchiveURL = v
		}
		if v, ok := m["token"].(string); ok {
			cfg.ArchiveToken = v
		}
	}
	if m, ok := doc["paths"].(map[string]any); ok {
		if v, ok := m["data"].(string); ok {
			cfg.DataDir = v
		}
		if v, ok := m["tiles"].(string); ok {
			cfg.TileDir = v
		}
		if v, ok := m["outbox"].(string); ok {
			cfg.OutboxDir = v
		}
		if v, ok := m["dest"].(string); ok {
			cfg.DestDir = v
		}
	}
	if m, ok := doc["workers"].(map[string]any); ok {
		if v, ok := m["download"].(int64); ok {
			cfg.DownloadWorkers = int(v)
		}
		if v, ok := m["preprocess"].(int64); ok {
			cfg.PreprocessWorkers = int(v)
		}
		if v, ok := m["inference"].(int64); ok {
			cfg.InferenceWorkers = int(v)
		}
	}
	if m, ok := doc["tile"].(map[string]any); ok {
		if v, ok := m["pixels"].(int64); ok {
			cfg.TilePixels = int(v)
		}
		switch v := m["min_cloud_fraction"].(type) {
		case float64:
			cfg.MinCloudFrac = v
		case int64:
			cfg.MinCloudFrac = float64(v)
		}
	}
	if v, ok := doc["poll_interval_ms"].(int64); ok {
		cfg.PollInterval = time.Duration(v) * time.Millisecond
	}
	if v, ok := doc["stall_timeout_ms"].(int64); ok {
		cfg.StallTimeout = time.Duration(v) * time.Millisecond
	}
	if m, ok := doc["batch"].(map[string]any); ok {
		if v, ok := m["tiles"].(int64); ok {
			cfg.BatchTiles = int(v)
		}
		if v, ok := m["delay_ms"].(int64); ok {
			cfg.BatchDelay = time.Duration(v) * time.Millisecond
		}
	}
	if v, ok := doc["precision"].(string); ok {
		cfg.Precision = v
	}
	if m, ok := doc["model"].(map[string]any); ok {
		if v, ok := m["weights"].(string); ok {
			cfg.ModelPath = v
		}
		if v, ok := m["codebook"].(string); ok {
			cfg.CodebookPath = v
		}
	}
	if v, ok := doc["metrics_addr"].(string); ok {
		cfg.MetricsAddr = v
	}
	if v, ok := doc["distribution"].(string); ok {
		cfg.Distribution = v
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// ConfigKeys lists every YAML key LoadConfig understands, nested keys
// in dotted form. DESIGN.md's config table and cmd/eoml's sample config
// are tested against this list, so a key added to LoadConfig without an
// entry here (or an entry without parsing code) fails the build — see
// TestConfigKeysMatchParser.
func ConfigKeys() []string {
	return []string{
		"satellite",
		"year",
		"doy",
		"granules",
		"archive.url",
		"archive.token",
		"paths.data",
		"paths.tiles",
		"paths.outbox",
		"paths.dest",
		"workers.download",
		"workers.preprocess",
		"workers.inference",
		"tile.pixels",
		"tile.min_cloud_fraction",
		"poll_interval_ms",
		"stall_timeout_ms",
		"batch.tiles",
		"batch.delay_ms",
		"precision",
		"model.weights",
		"model.codebook",
		"metrics_addr",
		"distribution",
	}
}

// LoadConfigFile reads and parses a YAML config from disk.
func LoadConfigFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := LoadConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}
