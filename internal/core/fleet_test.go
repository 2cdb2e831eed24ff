package core

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/tile"
)

// writeExternalTileFile writes granule idx's tiles, unlabeled, to path —
// a tile file as another facility's preprocessor would drop it — and
// returns the labels labeler gives them.
func writeExternalTileFile(t *testing.T, labeler *aicca.Labeler, idx int, path string) []int16 {
	t.Helper()
	gen, _ := modis.NewGenerator(testScale)
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
	mod02, _ := gen.Generate(modis.MOD021KM, g)
	mod03, _ := gen.Generate(modis.MOD03, g)
	mod06, _ := gen.Generate(modis.MOD06L2, g)
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tile.WriteNetCDF(path, res.Tiles); err != nil {
		t.Fatal(err)
	}
	want, err := labeler.LabelTiles(res.Tiles)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// streamWithExternalFiles drops one unlabeled tile file per external
// granule into TileDir, starts a local stream, waits until the monitor
// path has labeled every one of them into the outbox, and only then
// feeds the run's own granules and closes the stream — so the run
// cannot finish before the external files are in. It returns the report
// and the expected labels by shipped file name.
func streamWithExternalFiles(t *testing.T, cfg Config, labeler *aicca.Labeler, own, external []int) (*Report, map[string][]int16) {
	t.Helper()
	want := map[string][]int16{}
	for i, idx := range external {
		name := fmt.Sprintf("external-%d.nc", i)
		want[name] = writeExternalTileFile(t, labeler, idx, filepath.Join(cfg.TileDir, name))
	}
	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	arrivals := make(chan int, len(own))
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := p.RunStream(ctx, arrivals)
		done <- result{rep, err}
	}()
	for name := range want {
		for {
			if _, err := os.Stat(filepath.Join(cfg.OutboxDir, name)); err == nil {
				break
			}
			if ctx.Err() != nil {
				t.Fatalf("%s never reached the outbox", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, idx := range own {
		arrivals <- idx
	}
	close(arrivals)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	return res.rep, want
}

// TestLocalRunLabelsExternalTileFiles: a local run's own granules never
// pass through TileDir, but the monitor & trigger stage stays armed over
// it. A tile file some other writer drops there during the run is
// labeled by the monitor path, moved and shipped beside the run's own.
func TestLocalRunLabelsExternalTileFiles(t *testing.T) {
	granules := findProductiveGranules(t, 2, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, nil)

	rep, want := streamWithExternalFiles(t, cfg, labeler, granules[:1], granules[1:])
	ext := len(want["external-0.nc"])
	if rep.TileFiles != 1 || rep.TilesLabeled != rep.TilesProduced+ext {
		t.Fatalf("labeled %d tiles, want the run's %d plus the external file's %d: %s",
			rep.TilesLabeled, rep.TilesProduced, ext, rep.Summary())
	}
	if rep.FilesShipped != 2 {
		t.Fatalf("shipped %d files, want the granule's and the external one", rep.FilesShipped)
	}
	got, err := tile.ReadNetCDF(filepath.Join(cfg.DestDir, "external-0.nc"))
	if err != nil {
		t.Fatal(err)
	}
	for i, tl := range got {
		if tl.Label != want["external-0.nc"][i] {
			t.Fatalf("external tile %d: label %d, want %d", i, tl.Label, want["external-0.nc"][i])
		}
	}
	if left, _ := os.ReadDir(cfg.TileDir); len(left) != 0 {
		t.Fatalf("TileDir still holds %d file(s)", len(left))
	}
}

// TestRunShipsExternalFilesWithoutOwnProducts: a run whose own granules
// yield no tile file at all still ships the tile files other writers
// dropped into TileDir — shipment goes whenever the outbox holds files.
func TestRunShipsExternalFilesWithoutOwnProducts(t *testing.T) {
	granules := findProductiveGranules(t, 2, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, nil)

	rep, want := streamWithExternalFiles(t, cfg, labeler, nil, granules)
	external := 0
	for _, labels := range want {
		external += len(labels)
	}
	if rep.TileFiles != 0 || rep.TilesLabeled != external || rep.FilesShipped != len(want) {
		t.Fatalf("%s, want %d external tiles labeled and %d files shipped", rep.Summary(), external, len(want))
	}
	for name, labels := range want {
		got, err := tile.ReadNetCDF(filepath.Join(cfg.DestDir, name))
		if err != nil {
			t.Fatal(err)
		}
		for i, tl := range got {
			if tl.Label != labels[i] {
				t.Fatalf("%s tile %d: label %d, want %d", name, i, tl.Label, labels[i])
			}
		}
	}
}

// TestRunJoinsAllLabelFileFailures: every tile file in TileDir whose
// label-file lease fails is counted in FlowsFailed and named in the
// run's error — all of them, not just the first.
func TestRunJoinsAllLabelFileFailures(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, nil)
	if err := os.MkdirAll(cfg.TileDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bad1.nc", "bad2.nc"} {
		if err := os.WriteFile(filepath.Join(cfg.TileDir, name), []byte("not netcdf"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make(chan int)
	close(arrivals)
	rep, err := p.RunStream(context.Background(), arrivals)
	if err == nil {
		t.Fatal("bad tile files produced no error")
	}
	if rep.FlowsFailed != 2 {
		t.Fatalf("FlowsFailed = %d, want 2", rep.FlowsFailed)
	}
	for _, name := range []string{"bad1.nc", "bad2.nc"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("run error omits %s: %v", name, err)
		}
	}
}

// TestLocalRunIsFleetOfOne: a local run leases exactly one task per
// granule to its in-process fleet, whose series replace the old
// executor's on the run's registry, and the monitor never sees a tile
// file of the run's own.
func TestLocalRunIsFleetOfOne(t *testing.T) {
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
	if rep.FilesShipped != len(granules) {
		t.Fatalf("shipped %d of %d: %s", rep.FilesShipped, len(granules), rep.Summary())
	}
	values := map[string]float64{}
	for _, f := range rep.Metrics {
		if strings.HasPrefix(f.Name, "eoml_executor_") {
			t.Errorf("local run still exports %s", f.Name)
		}
		for _, s := range f.Series {
			key := f.Name
			for _, l := range s.Labels {
				key += "," + l.Key + "=" + l.Value
			}
			values[key] = s.Value
		}
	}
	if got := values["eoml_fleet_tasks_submitted_total"]; got != float64(len(granules)) {
		t.Errorf("eoml_fleet_tasks_submitted_total = %v, want one task per granule (%d)", got, len(granules))
	}
	if got := values["eoml_fleet_tasks_inflight"]; got != 0 {
		t.Errorf("eoml_fleet_tasks_inflight = %v after the run", got)
	}
	for _, key := range []string{"eoml_stage_events_total,stage=monitor,dir=in", "eoml_stage_events_total,stage=inference,dir=in"} {
		if got, ok := values[key]; !ok || got != 0 {
			t.Errorf("%s = %v (registered %v), want 0: the run's own files bypass the monitor", key, got, ok)
		}
	}
	if left, _ := os.ReadDir(cfg.TileDir); len(left) != 0 {
		t.Errorf("TileDir holds %d file(s)", len(left))
	}
}

// TestLocalRunSurvivesPanickingKernel: a kernel that panics — here on a
// labeler with no model — fails its granule's run with an error instead
// of taking the process down, and the run unwinds cleanly.
func TestLocalRunSurvivesPanickingKernel(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, granules)
	p, err := New(cfg, &aicca.Labeler{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("run error = %v, want the kernel's panic", err)
	}
}

// TestCoreDoesNotImportParsl pins the import boundary: core runs every
// granule, its fetch included, through the fleet protocol, so no non-test
// file in it may reach for the parsl executor or the compute fabric
// again.
func TestCoreDoesNotImportParsl(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasSuffix(path, "/internal/parsl") || strings.HasSuffix(path, "/internal/compute") {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
