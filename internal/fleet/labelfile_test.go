package fleet_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/tile"
)

// externalTileFile writes granule idx's tiles, unlabeled, to path — a
// tile file as another facility's preprocessor would drop it — and
// returns the labels Labeler.LabelTiles gives them under the model and
// codebook.
func externalTileFile(t *testing.T, archiveURL string, idx int, model, codebook, path string) []int16 {
	t.Helper()
	tiles, err := tile.ReadNetCDF(runGranule(t, granuleKernel(t), granuleTask(t, archiveURL, idx, model, codebook, "")).File)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range tiles {
		tl.Label = -1
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tile.WriteNetCDF(path, tiles); err != nil {
		t.Fatal(err)
	}
	l, err := fleet.NewKernels().Labeler(model, codebook)
	if err != nil {
		t.Fatal(err)
	}
	want, err := l.LabelTiles(tiles)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func sameLabels(t *testing.T, what string, got, want []int16) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s tile %d: label %d, want %d", what, i, got[i], want[i])
		}
	}
}

// labelFileTask builds one label-file task for src into a fresh outbox.
func labelFileTask(t *testing.T, src, model, codebook, precision string) fleet.LabelFileArgs {
	t.Helper()
	outbox := filepath.Join(t.TempDir(), "outbox")
	if err := os.MkdirAll(outbox, 0o755); err != nil {
		t.Fatal(err)
	}
	return fleet.LabelFileArgs{Src: src, OutboxDir: outbox, Model: model, Codebook: codebook, Precision: precision}
}

func runLabelFile(fn compute.Function, args fleet.LabelFileArgs) (fleet.LabelFileResult, error) {
	v, err := fn(context.Background(), args.Args())
	if err != nil {
		return fleet.LabelFileResult{}, err
	}
	return fleet.ParseLabelFileResult(v)
}

// TestLabelFileKernelMatchesLabelFile: the label-file task publishes
// into the outbox, byte for byte, what Labeler.LabelFile's read, label
// and rewrite in place makes of the same file, at both encode
// precisions, and leaves its source untouched.
func TestLabelFileKernelMatchesLabelFile(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 2, 2)
	model, codebook := trainAndSave(t, granules[0])
	src := filepath.Join(t.TempDir(), "external.nc")
	want := externalTileFile(t, archive.URL, granules[1], model, codebook, src)
	unlabeled, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, precision := range []string{"float32", "int8"} {
		t.Run(precision, func(t *testing.T) {
			args := labelFileTask(t, src, model, codebook, precision)
			res, err := runLabelFile(lookup(t, kernelSet(t), fleet.LabelFileFunction), args)
			if err != nil {
				t.Fatal(err)
			}
			if res.File != filepath.Join(args.OutboxDir, "external.nc") || res.Labeled != len(want) {
				t.Fatalf("result %+v, want %d tiles published as external.nc", res, len(want))
			}
			if res.Started.IsZero() || res.Read <= 0 || res.Label <= 0 || res.Write <= 0 {
				t.Fatalf("result %+v lacks the worker's phase times", res)
			}

			l, err := fleet.NewKernels().Labeler(model, codebook)
			if err != nil {
				t.Fatal(err)
			}
			ll := *l
			if ll.Precision, err = aicca.ParsePrecision(precision); err != nil {
				t.Fatal(err)
			}
			inPlace := filepath.Join(t.TempDir(), "external.nc")
			if err := os.WriteFile(inPlace, unlabeled, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ll.LabelFile(inPlace); err != nil {
				t.Fatal(err)
			}
			sameFiles(t, "kernel vs LabelFile", dirFiles(t, args.OutboxDir), dirFiles(t, filepath.Dir(inPlace)))
			if now, _ := os.ReadFile(src); string(now) != string(unlabeled) {
				t.Fatal("the task rewrote its source")
			}
		})
	}
}

// TestLabelFileKernelDuplicateAfterSourceRemoved: once a lease has
// published the file and the run has removed the source, a duplicate
// lease on another worker reports success and writes no second file.
// With the output gone as well, there is nothing to succeed on.
func TestLabelFileKernelDuplicateAfterSourceRemoved(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 2, 2)
	model, codebook := trainAndSave(t, granules[0])
	src := filepath.Join(t.TempDir(), "tiles", "external.nc")
	externalTileFile(t, archive.URL, granules[1], model, codebook, src)
	args := labelFileTask(t, src, model, codebook, "")
	first, err := runLabelFile(lookup(t, kernelSet(t), fleet.LabelFileFunction), args)
	if err != nil {
		t.Fatal(err)
	}
	published := outboxStat(t, args.OutboxDir)
	if err := os.Remove(src); err != nil {
		t.Fatal(err)
	}

	duplicate := lookup(t, kernelSet(t), fleet.LabelFileFunction)
	res, err := runLabelFile(duplicate, args)
	if err != nil {
		t.Fatalf("duplicate after the source was removed: %v", err)
	}
	if res.File != first.File {
		t.Fatalf("duplicate reports %s, want %s", res.File, first.File)
	}
	if !os.SameFile(published, outboxStat(t, args.OutboxDir)) {
		t.Fatal("the duplicate rewrote the published file")
	}

	if err := os.Remove(first.File); err != nil {
		t.Fatal(err)
	}
	if _, err := runLabelFile(duplicate, args); err == nil {
		t.Fatal("a task with neither source nor output succeeded")
	}
}

// TestLabelFileKernelStaysInOutbox: whatever path src names, the task
// publishes only into OutboxDir, under the source's base name, and only
// a .nc file.
func TestLabelFileKernelStaysInOutbox(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 2, 2)
	model, codebook := trainAndSave(t, granules[0])
	root := t.TempDir()
	externalTileFile(t, archive.URL, granules[1], model, codebook, filepath.Join(root, "x.nc"))
	fn := lookup(t, kernelSet(t), fleet.LabelFileFunction)

	args := labelFileTask(t, filepath.Join(root, "tiles", "..", "x.nc"), model, codebook, "")
	res, err := runLabelFile(fn, args)
	if err != nil {
		t.Fatal(err)
	}
	if res.File != filepath.Join(args.OutboxDir, "x.nc") {
		t.Fatalf("published %s, want it in the outbox", res.File)
	}
	if entries, _ := os.ReadDir(root); len(entries) != 1 {
		t.Fatalf("the task wrote beside its source: %v", entries)
	}
	for _, src := range []string{"", root, filepath.Join(root, ".."), filepath.Join(root, "x.txt")} {
		bad := labelFileTask(t, src, model, codebook, "")
		if _, err := runLabelFile(fn, bad); err == nil {
			t.Errorf("src %q accepted", src)
		}
		if left := dirFiles(t, bad.OutboxDir); len(left) != 0 {
			t.Errorf("src %q published %d file(s)", src, len(left))
		}
	}
}

// TestLabelFileLeaseRequeuedPublishesOnce: a label-file lease whose
// worker publishes the file and then dies before answering is requeued
// onto another worker, and the file reaches the outbox and the
// destination exactly once, byte-identical to what the dead worker had
// published.
func TestLabelFileLeaseRequeuedPublishesOnce(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 2, 2)
	model, codebook := trainAndSave(t, granules[0])
	cfg := runConfig(t, archive.URL, granules[:1], model, codebook, core.DistributionFleet)
	want := externalTileFile(t, archive.URL, granules[1], model, codebook, filepath.Join(cfg.TileDir, "external.nc"))

	var victimWrote atomic.Value
	var died atomic.Bool
	tr := &routedTransport{
		kernels: map[string]*compute.Registry{"http://a-victim": kernelSet(t), "http://b-survivor": kernelSet(t)},
	}
	tr.before = func(ctx context.Context, url, function string, args map[string]any) error {
		if function != fleet.LabelFileFunction || died.Swap(true) {
			return nil
		}
		if _, err := tr.call(ctx, url, function, args); err != nil {
			return err
		}
		published, err := os.ReadFile(filepath.Join(cfg.OutboxDir, "external.nc"))
		if err != nil {
			t.Error(err)
		}
		victimWrote.Store(published)
		return errors.New("connection refused")
	}
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Hour, Transport: tr})
	defer coord.Close()
	reg := metrics.NewRegistry()
	coord.Instrument(reg)
	// One slot: the victim holds nothing but the label-file lease when
	// it dies.
	if err := coord.Register("a-victim", "http://a-victim", 1); err != nil {
		t.Fatal(err)
	}
	run, err := core.NewEngine(core.EngineOptions{Fleet: coord}).NewRun(cfg, core.RunOptions{ID: "requeue"})
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := run.Run(context.Background())
		finished <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for fleetCounter(t, reg, "eoml_fleet_tasks_requeued_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("label-file lease never requeued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := coord.Register("b-survivor", "http://b-survivor", 1); err != nil {
		t.Fatal(err)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}

	outbox := dirFiles(t, cfg.OutboxDir)
	if len(outbox) != 2 {
		t.Fatalf("outbox holds %v, want the granule's file and external.nc once each", keys(outbox))
	}
	if string(outbox["external.nc"]) != string(victimWrote.Load().([]byte)) {
		t.Fatal("the survivor's external.nc differs from the victim's")
	}
	sameFiles(t, "dest vs outbox", dirFiles(t, cfg.DestDir), outbox)
	sameLabels(t, "external.nc", destLabels(t, cfg.DestDir)["external.nc"], want)
	for name, n := range map[string]float64{
		"eoml_fleet_tasks_submitted_total": 2,
		"eoml_fleet_tasks_completed_total": 2,
		"eoml_fleet_tasks_requeued_total":  1,
		"eoml_fleet_workers_evicted_total": 1,
	} {
		if got := fleetCounter(t, reg, name); got != n {
			t.Fatalf("%s = %v, want %v", name, got, n)
		}
	}
	if left := dirFiles(t, cfg.TileDir); len(left) != 0 {
		t.Fatalf("TileDir still holds %v", keys(left))
	}
}

func keys(files map[string][]byte) string {
	var names []string
	for name := range files {
		names = append(names, name)
	}
	return strings.Join(names, ", ")
}
