package core

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

const testScale = 64 // tiny granules; tile edge 4 px

// findProductiveGranules returns day-side granule indices that yield at
// least minTiles ocean-cloud tiles at the test scale.
func findProductiveGranules(t *testing.T, want, minTiles int) []int {
	t.Helper()
	gen, err := modis.NewGenerator(testScale)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for idx := 0; idx < modis.GranulesPerDay && len(out) < want; idx++ {
		g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
		mod02, err := gen.Generate(modis.MOD021KM, g)
		if err != nil {
			t.Fatal(err)
		}
		if flag, _ := mod02.AttrString("DayNightFlag"); flag != "Day" {
			continue
		}
		mod03, _ := gen.Generate(modis.MOD03, g)
		mod06, _ := gen.Generate(modis.MOD06L2, g)
		res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tiles) >= minTiles {
			out = append(out, idx)
		}
	}
	if len(out) < want {
		t.Fatalf("found only %d productive granules", len(out))
	}
	return out
}

// trainTestLabeler builds a tiny labeler from the first granule's tiles.
func trainTestLabeler(t *testing.T, granuleIdx int) *aicca.Labeler {
	t.Helper()
	gen, _ := modis.NewGenerator(testScale)
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: granuleIdx}
	mod02, _ := gen.Generate(modis.MOD021KM, g)
	mod03, _ := gen.Generate(modis.MOD03, g)
	mod06, _ := gen.Generate(modis.MOD06L2, g)
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ricc.Config{
		TileSize:  4,
		Channels:  6,
		LatentDim: 8,
		Beta:      0.3,
		LR:        2e-3,
		Epochs:    2,
		BatchSize: 16,
		Rotations: 1,
		Seed:      5,
	}
	k := 4
	if len(res.Tiles) < 8 {
		k = 2
	}
	labeler, _, err := aicca.Train(res.Tiles, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return labeler
}

func testConfig(t *testing.T, archiveURL string, granules []int) Config {
	t.Helper()
	root := t.TempDir()
	cfg := DefaultConfig()
	cfg.ArchiveURL = archiveURL
	cfg.ArchiveToken = "test-token"
	cfg.Granules = granules
	cfg.DataDir = filepath.Join(root, "data")
	cfg.TileDir = filepath.Join(root, "tiles")
	cfg.OutboxDir = filepath.Join(root, "outbox")
	cfg.DestDir = filepath.Join(root, "orion")
	cfg.TilePixels = 4
	cfg.DownloadWorkers = 3
	cfg.PreprocessWorkers = 4
	cfg.PollInterval = 10 * time.Millisecond
	return cfg
}

func newArchive(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := laads.NewServer(laads.ServerConfig{ScaleDown: testScale, Token: "test-token"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestPipelineEndToEnd(t *testing.T) {
	granules := findProductiveGranules(t, 3, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, granules)

	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesDownloaded != len(granules)*3 {
		t.Errorf("downloaded %d files, want %d", rep.FilesDownloaded, len(granules)*3)
	}
	if rep.TileFiles == 0 || rep.TilesProduced == 0 {
		t.Fatalf("no tiles produced: %+v", rep)
	}
	if rep.TilesLabeled != rep.TilesProduced {
		t.Errorf("labeled %d of %d tiles", rep.TilesLabeled, rep.TilesProduced)
	}
	if rep.FilesShipped != rep.TileFiles {
		t.Errorf("shipped %d of %d tile files", rep.FilesShipped, rep.TileFiles)
	}

	// Shipped files must carry labels in range.
	entries, err := os.ReadDir(cfg.DestDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != rep.TileFiles {
		t.Fatalf("destination has %d files", len(entries))
	}
	for _, e := range entries {
		tiles, err := tile.ReadNetCDF(filepath.Join(cfg.DestDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, tl := range tiles {
			if tl.Label < 0 {
				t.Fatalf("%s tile %d unlabeled", e.Name(), i)
			}
		}
	}

	// The tile dir must be drained (everything moved to outbox/dest).
	tileEntries, _ := os.ReadDir(cfg.TileDir)
	if len(tileEntries) != 0 {
		t.Errorf("tile dir not drained: %d files", len(tileEntries))
	}

	// Telemetry covers all stages. Fetching happens inside each granule
	// task, so download is a timeline row, not a stage span.
	for _, span := range []string{"preprocess", "inference", "shipment"} {
		if _, ok := rep.Spans.Get(span); !ok {
			t.Errorf("missing span %q", span)
		}
	}
	for _, row := range []string{"download", "preprocess"} {
		if rep.Timeline.PeakCount(row) == 0 {
			t.Errorf("no %s activity in timeline", row)
		}
	}
	if !strings.Contains(rep.Summary(), "labeled=") {
		t.Errorf("summary: %s", rep.Summary())
	}
}

// TestRerunOverDataDirFetchesNothing: the granule task fetches only what
// DataDir lacks, so a second local run over the same data directory
// makes no archive request and reports no download.
func TestRerunOverDataDirFetchesNothing(t *testing.T) {
	granules := findProductiveGranules(t, 2, 3)
	labeler := trainTestLabeler(t, granules[0])
	srv, err := laads.NewServer(laads.ServerConfig{ScaleDown: testScale, Token: "test-token"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	run := func(cfg Config) *Report {
		t.Helper()
		p, err := New(cfg, labeler)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.FilesShipped != len(granules) {
			t.Fatalf("shipped %d of %d: %s", rep.FilesShipped, len(granules), rep.Summary())
		}
		return rep
	}
	first := testConfig(t, ts.URL, granules)
	if rep := run(first); rep.FilesDownloaded != 3*len(granules) {
		t.Fatalf("first run: %s, want every product file fetched", rep.Summary())
	}
	requests, _ := srv.Stats()
	again := testConfig(t, ts.URL, granules)
	again.DataDir = first.DataDir
	rep := run(again)
	if rep.FilesDownloaded != 0 || rep.BytesDownloaded != 0 {
		t.Fatalf("rerun over the same data directory reports files=%d bytes=%d, want 0 0", rep.FilesDownloaded, rep.BytesDownloaded)
	}
	if r, _ := srv.Stats(); r != requests {
		t.Fatalf("rerun made %d archive requests, want none", r-requests)
	}
}

func TestPipelineWithNightGranule(t *testing.T) {
	// Include a night granule: it downloads fine, yields no tiles, and
	// must not stall the inference accounting.
	gen, _ := modis.NewGenerator(testScale)
	night := -1
	for idx := 0; idx < modis.GranulesPerDay; idx++ {
		g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
		f, _ := gen.Generate(modis.MOD021KM, g)
		if flag, _ := f.AttrString("DayNightFlag"); flag == "Night" {
			night = idx
			break
		}
	}
	if night == -1 {
		t.Fatal("no night granule found")
	}
	day := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, day[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, []int{day[0], night})

	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TileFiles != 1 {
		t.Fatalf("tile files = %d, want 1 (night granule yields none)", rep.TileFiles)
	}
	if rep.FilesDownloaded != 6 {
		t.Fatalf("downloaded %d", rep.FilesDownloaded)
	}
}

// TestPipelineBatchedInference drives the monitor path with several
// inference workers and a batch size small enough to force multiple
// cross-file flushes — over tile files other writers drop into TileDir,
// the only files that path sees — then checks every tile still gets
// labeled exactly once and the per-batch spans show up on the timeline.
func TestPipelineBatchedInference(t *testing.T) {
	granules := findProductiveGranules(t, 4, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, nil)
	cfg.InferenceWorkers = 3
	cfg.BatchTiles = 8

	rep, want := streamWithExternalFiles(t, cfg, labeler, granules[:1], granules)
	external := 0
	for _, labels := range want {
		external += len(labels)
	}
	if rep.TilesLabeled != rep.TilesProduced+external {
		t.Errorf("labeled %d tiles, want %d own + %d external", rep.TilesLabeled, rep.TilesProduced, external)
	}
	if rep.FilesShipped != rep.TileFiles+len(want) {
		t.Errorf("shipped %d files, want %d own + %d external", rep.FilesShipped, rep.TileFiles, len(want))
	}
	entries, err := os.ReadDir(cfg.DestDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		tiles, err := tile.ReadNetCDF(filepath.Join(cfg.DestDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, tl := range tiles {
			if tl.Label < 0 {
				t.Fatalf("%s tile %d unlabeled", e.Name(), i)
			}
		}
	}
	if len(rep.Timeline.Samples("inference.batch")) == 0 {
		t.Error("no inference.batch spans recorded")
	}
}

func TestPipelineLoadsModelFromDisk(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, granules[0])
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.hdf")
	cbPath := filepath.Join(dir, "codebook.hdf")
	if err := labeler.Model.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := labeler.Codebook.Save(cbPath); err != nil {
		t.Fatal(err)
	}

	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, granules)
	cfg.ModelPath = modelPath
	cfg.CodebookPath = cbPath
	p, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TilesLabeled == 0 {
		t.Fatal("no tiles labeled with disk-loaded model")
	}
}

func TestNewRequiresLabelerOrPaths(t *testing.T) {
	cfg := testConfig(t, "http://localhost:1", []int{0})
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("nil labeler without model paths accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(t, "http://x", []int{0})
	cases := []func(*Config){
		func(c *Config) { c.Year = 1 },
		func(c *Config) { c.DOY = 0 },
		func(c *Config) { c.Granules = []int{999} },
		func(c *Config) { c.ArchiveURL = "" },
		func(c *Config) { c.DataDir = "" },
		func(c *Config) { c.DownloadWorkers = 0 },
		func(c *Config) { c.TilePixels = 1 },
		func(c *Config) { c.MinCloudFrac = 2 },
		func(c *Config) { c.PollInterval = 0 },
		func(c *Config) { c.StallTimeout = 0 },
		func(c *Config) { c.BatchTiles = 0 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	// batch.delay_ms is deprecated and ignored since PR 13: no value of
	// it can make a config invalid.
	for _, d := range []time.Duration{0, -time.Second} {
		cfg := base
		cfg.BatchDelay = d
		if err := cfg.Validate(); err != nil {
			t.Errorf("BatchDelay %v rejected: %v", d, err)
		}
	}
}

func TestLoadConfigYAML(t *testing.T) {
	doc := `
satellite: Terra
year: 2022
doy: 1
granules: [144, 150]
archive:
  url: http://localhost:8900
  token: secret
paths:
  data: /tmp/eoml/data
  tiles: /tmp/eoml/tiles
  outbox: /tmp/eoml/outbox
  dest: /tmp/eoml/orion
workers:
  download: 3
  preprocess: 32
  inference: 1
tile:
  pixels: 16
  min_cloud_fraction: 0.3
poll_interval_ms: 25
stall_timeout_ms: 120000
batch:
  tiles: 128
  delay_ms: 10
model:
  weights: m.hdf
  codebook: cb.hdf
`
	cfg, err := LoadConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Satellite != modis.Terra || cfg.Year != 2022 || cfg.DOY != 1 {
		t.Fatalf("identity: %+v", cfg)
	}
	if len(cfg.Granules) != 2 || cfg.Granules[1] != 150 {
		t.Fatalf("granules: %v", cfg.Granules)
	}
	if cfg.ArchiveURL != "http://localhost:8900" || cfg.ArchiveToken != "secret" {
		t.Fatalf("archive: %+v", cfg)
	}
	if cfg.PreprocessWorkers != 32 || cfg.InferenceWorkers != 1 {
		t.Fatalf("workers: %+v", cfg)
	}
	if cfg.TilePixels != 16 || cfg.MinCloudFrac != 0.3 {
		t.Fatalf("tile: %+v", cfg)
	}
	if cfg.PollInterval != 25*time.Millisecond {
		t.Fatalf("poll: %v", cfg.PollInterval)
	}
	if cfg.StallTimeout != 2*time.Minute {
		t.Fatalf("stall: %v", cfg.StallTimeout)
	}
	if cfg.BatchTiles != 128 || cfg.BatchDelay != 10*time.Millisecond {
		t.Fatalf("batch: %+v", cfg)
	}
	if cfg.ModelPath != "m.hdf" || cfg.CodebookPath != "cb.hdf" {
		t.Fatalf("model: %+v", cfg)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	cases := map[string]string{
		"bad satellite": "satellite: Sentinel\narchive:\n  url: http://x\npaths:\n  data: a\n  tiles: b\n  outbox: c\n  dest: d",
		"bad granule":   "granules: [oops]\narchive:\n  url: http://x\npaths:\n  data: a\n  tiles: b\n  outbox: c\n  dest: d",
		"missing paths": "archive:\n  url: http://x",
		"bad yaml":      "a: [1,",
	}
	for name, doc := range cases {
		if _, err := LoadConfig([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLabelPathWaitsOnNoTimer pins the work-conserving label path: with
// the crawler's tick (and the deprecated batch window) an hour away, a
// batch run and a stream still finish promptly, because a run's own
// granules are labeled inside their fleet task and never wait on the
// monitor. Anything left waiting on a tick or a window would hit the
// deadline instead.
func TestLabelPathWaitsOnNoTimer(t *testing.T) {
	granules := findProductiveGranules(t, 3, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	check := func(t *testing.T, rep *Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if rep.TileFiles == 0 || rep.TilesLabeled != rep.TilesProduced || rep.FilesShipped != rep.TileFiles {
			t.Fatalf("incomplete: %s", rep.Summary())
		}
	}
	timerless := func(cfg Config) Config {
		cfg.PollInterval = time.Hour
		cfg.BatchDelay = time.Hour
		return cfg
	}
	t.Run("batch", func(t *testing.T) {
		p, err := New(timerless(testConfig(t, ts.URL, granules)), labeler)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(ctx)
		check(t, rep, err)
	})
	t.Run("stream", func(t *testing.T) {
		p, err := New(timerless(testConfig(t, ts.URL, nil)), labeler)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := make(chan int, len(granules))
		for _, idx := range granules {
			arrivals <- idx
		}
		close(arrivals)
		rep, err := p.RunStream(ctx, arrivals)
		check(t, rep, err)
	})
}
