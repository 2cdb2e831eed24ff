package fleet_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

const testScale = 64 // tiny granules; tile edge 4 px

// productiveGranules returns day-side granule indices yielding at least
// minTiles ocean-cloud tiles at the test scale.
func productiveGranules(t *testing.T, want, minTiles int) []int {
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

// trainAndSave fits a tiny labeler on one granule's tiles and saves the
// artifacts, returning (modelPath, codebookPath).
func trainAndSave(t *testing.T, granuleIdx int) (string, string) {
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
		TileSize: 4, Channels: 6, LatentDim: 8, Beta: 0.3,
		LR: 2e-3, Epochs: 2, BatchSize: 16, Rotations: 1, Seed: 5,
	}
	k := 4
	if len(res.Tiles) < 8 {
		k = 2
	}
	labeler, _, err := aicca.Train(res.Tiles, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "ricc.hdf")
	codebook := filepath.Join(dir, "codebook.hdf")
	if err := labeler.Model.Save(model); err != nil {
		t.Fatal(err)
	}
	if err := labeler.Codebook.Save(codebook); err != nil {
		t.Fatal(err)
	}
	return model, codebook
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

// runConfig builds a run config over its own directory tree.
func runConfig(t *testing.T, archiveURL string, granules []int, model, codebook, distribution string) core.Config {
	t.Helper()
	root := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.Granules = granules
	cfg.ArchiveURL = archiveURL
	cfg.ArchiveToken = "test-token"
	cfg.DataDir = filepath.Join(root, "data")
	cfg.TileDir = filepath.Join(root, "tiles")
	cfg.OutboxDir = filepath.Join(root, "outbox")
	cfg.DestDir = filepath.Join(root, "dest")
	cfg.PreprocessWorkers = 4
	cfg.TilePixels = 4
	cfg.PollInterval = 10 * time.Millisecond
	cfg.ModelPath = model
	cfg.CodebookPath = codebook
	cfg.Distribution = distribution
	return cfg
}

// destLabels reads every shipped NetCDF in the run's dest dir and
// returns file base name -> label sequence.
func destLabels(t *testing.T, destDir string) map[string][]int16 {
	t.Helper()
	entries, err := os.ReadDir(destDir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]int16{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".nc" {
			continue
		}
		tiles, err := tile.ReadNetCDF(filepath.Join(destDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int16, len(tiles))
		for i, tl := range tiles {
			labels[i] = tl.Label
		}
		out[e.Name()] = labels
	}
	return out
}

// startWorkers brings up n in-process fleet workers against a
// coordinator served over HTTP and returns their Stop functions' owner.
func startWorkers(t *testing.T, coordinatorURL string, n, slots int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:             "eq-worker-" + string(rune('a'+i)),
			CoordinatorURL: coordinatorURL,
			Slots:          slots,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
}

// TestFleetMatchesLocalLabels is the acceptance property: the same
// granules, model, and codebook must produce identical AICCA labels —
// and byte-identical products — whether the run executes in-process or
// fleet-distributed.
func TestFleetMatchesLocalLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end equivalence run")
	}
	archive := newArchive(t)
	granules := productiveGranules(t, 2, 2)
	model, codebook := trainAndSave(t, granules[0])
	ctx := context.Background()

	// Local run.
	localCfg := runConfig(t, archive.URL, granules, model, codebook, core.DistributionLocal)
	localEng := core.NewEngine(core.EngineOptions{})
	localRun, err := localEng.NewRun(localCfg, core.RunOptions{ID: "local"})
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := localRun.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet run: coordinator behind a real HTTP control plane, two
	// worker "processes" leasing the same kernels.
	coord := fleet.NewCoordinator(fleet.Config{})
	defer coord.Close()
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()
	startWorkers(t, cp.URL, 2, 2)

	fleetCfg := runConfig(t, archive.URL, granules, model, codebook, core.DistributionFleet)
	fleetEng := core.NewEngine(core.EngineOptions{Fleet: coord})
	fleetRun, err := fleetEng.NewRun(fleetCfg, core.RunOptions{ID: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	fleetRep, err := fleetRun.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if localRep.TilesLabeled == 0 {
		t.Fatal("local run labeled no tiles; test corpus is empty")
	}
	if localRep.TilesLabeled != fleetRep.TilesLabeled {
		t.Fatalf("tiles labeled: local %d, fleet %d", localRep.TilesLabeled, fleetRep.TilesLabeled)
	}

	localLabels := destLabels(t, localCfg.DestDir)
	fleetLabels := destLabels(t, fleetCfg.DestDir)
	if len(localLabels) == 0 {
		t.Fatal("local run shipped no files")
	}
	var names []string
	for name := range localLabels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fl, ok := fleetLabels[name]
		if !ok {
			t.Fatalf("fleet run missing shipped file %s", name)
		}
		ll := localLabels[name]
		if len(fl) != len(ll) {
			t.Fatalf("%s: local %d labels, fleet %d", name, len(ll), len(fl))
		}
		for i := range ll {
			if ll[i] != fl[i] {
				t.Fatalf("%s tile %d: local label %d, fleet label %d", name, i, ll[i], fl[i])
			}
		}
	}
	if len(fleetLabels) != len(localLabels) {
		t.Fatalf("shipped files: local %d, fleet %d", len(localLabels), len(fleetLabels))
	}

	// Same products byte for byte — the worker's single labeled write
	// equals the local path's write, label, rewrite and move — and no
	// tile file left behind on either side (the fleet never wrote one).
	sameFiles(t, "fleet vs local outbox", dirFiles(t, fleetCfg.OutboxDir), dirFiles(t, localCfg.OutboxDir))
	for name, cfg := range map[string]core.Config{"local": localCfg, "fleet": fleetCfg} {
		if left := dirFiles(t, cfg.TileDir); len(left) != 0 {
			t.Fatalf("%s run left %d file(s) in TileDir", name, len(left))
		}
	}
}

// TestEngineRejectsFleetConfigWithoutCoordinator pins the NewRun guard.
func TestEngineRejectsFleetConfigWithoutCoordinator(t *testing.T) {
	model, codebook := trainAndSave(t, productiveGranules(t, 1, 1)[0])
	cfg := runConfig(t, "http://unused", []int{0}, model, codebook, core.DistributionFleet)
	if _, err := core.NewEngine(core.EngineOptions{}).NewRun(cfg, core.RunOptions{}); err == nil {
		t.Fatal("NewRun accepted fleet distribution without a coordinator")
	}
}
