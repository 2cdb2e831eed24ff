package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/provenance"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

// granuleKernel returns the worker-side granule function of a fresh
// kernel set — what a worker's endpoint would run for a lease.
func granuleKernel(t *testing.T) compute.Function {
	t.Helper()
	reg := compute.NewRegistry()
	if err := fleet.NewKernels().Register(reg, make(chan struct{}, 1), nil); err != nil {
		t.Fatal(err)
	}
	fn, err := reg.Lookup(fleet.GranuleFunction)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// granuleTask builds one granule task over fresh directories; the
// outbox exists, as it does once a run's orchestrator has started.
func granuleTask(t *testing.T, archiveURL string, idx int, model, codebook, precision string) fleet.GranuleArgs {
	t.Helper()
	root := t.TempDir()
	args := fleet.GranuleArgs{
		Satellite: "Terra", Year: 2022, DOY: 1, Index: idx,
		DataDir:    filepath.Join(root, "data"),
		OutboxDir:  filepath.Join(root, "outbox"),
		TilePixels: 4, MinCloudFrac: core.DefaultConfig().MinCloudFrac,
		Model: model, Codebook: codebook, Precision: precision,
		ArchiveURL: archiveURL, ArchiveToken: "test-token",
	}
	if err := os.MkdirAll(args.OutboxDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return args
}

// wire flattens a task the way a run does before submitting it.
func wire(t *testing.T, args fleet.GranuleArgs) map[string]any {
	t.Helper()
	m, err := args.Args()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runGranule(t *testing.T, fn compute.Function, args fleet.GranuleArgs) fleet.GranuleResult {
	t.Helper()
	v, err := fn(context.Background(), wire(t, args))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.ParseGranuleResult(v)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dirFiles reads every file directly under dir: name -> bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func sameFiles(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, want %d", what, len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("%s: %s differs (%d vs %d bytes)", what, name, len(got[name]), len(data))
		}
	}
}

// TestGranuleKernelMatchesWriteThenLabel: the file a worker writes once,
// with labels already set, is byte-identical to what the local path
// produces in two steps — tile.WriteNetCDF, then Labeler.LabelFile's
// read, label, and rewrite — at both encode precisions.
func TestGranuleKernelMatchesWriteThenLabel(t *testing.T) {
	archive := newArchive(t)
	idx := productiveGranules(t, 1, 2)[0]
	model, codebook := trainAndSave(t, idx)
	for _, precision := range []aicca.Precision{aicca.PrecisionFloat32, aicca.PrecisionInt8} {
		t.Run(string(precision), func(t *testing.T) {
			args := granuleTask(t, archive.URL, idx, model, codebook, string(precision))
			res := runGranule(t, granuleKernel(t), args)
			if res.Tiles == 0 || res.Labeled != res.Tiles || res.File == "" {
				t.Fatalf("result %+v: want every tile labeled into a file", res)
			}
			if res.Started.IsZero() || res.Extract <= 0 || res.Label <= 0 || res.Write <= 0 {
				t.Fatalf("result %+v: missing phase times", res)
			}

			// The two-step reference over the inputs the kernel fetched.
			g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
			var in [3]*hdf.File
			for i, kind := range []modis.Kind{modis.L1B, modis.Geo, modis.Cloud} {
				name := modis.FileName(modis.Product{Satellite: g.Satellite, Kind: kind}, g)
				f, err := hdf.ReadFile(filepath.Join(args.DataDir, name))
				if err != nil {
					t.Fatal(err)
				}
				in[i] = f
			}
			ext, err := tile.Extract(in[0], in[1], in[2], tile.Options{TileSize: args.TilePixels, MinCloudFrac: args.MinCloudFrac})
			if err != nil {
				t.Fatal(err)
			}
			m, err := ricc.Load(model)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := ricc.LoadCodebook(codebook)
			if err != nil {
				t.Fatal(err)
			}
			labeler, err := aicca.NewLabeler(m, cb)
			if err != nil {
				t.Fatal(err)
			}
			labeler.Precision = precision
			ref := filepath.Join(t.TempDir(), filepath.Base(res.File))
			if err := tile.WriteNetCDF(ref, ext.Tiles); err != nil {
				t.Fatal(err)
			}
			if n, err := labeler.LabelFile(ref); err != nil || n != res.Labeled {
				t.Fatalf("reference LabelFile = %d, %v; kernel labeled %d", n, err, res.Labeled)
			}
			want, err := os.ReadFile(ref)
			if err != nil {
				t.Fatal(err)
			}
			sameFiles(t, "outbox", dirFiles(t, args.OutboxDir), map[string][]byte{filepath.Base(res.File): want})
		})
	}
}

// TestGranuleKernelDuplicateLeases covers what keeps a duplicated lease
// harmless on the worker: a repeat on the same worker is a memo hit (no
// recompute, the first run's times, no downloads reported again), unless
// the published file vanished,
// in which case it recomputes; a lease canceled while it computed does
// not publish; and a duplicate that outlives its run fails rather than
// recreating the outbox the run has removed.
func TestGranuleKernelDuplicateLeases(t *testing.T) {
	archive := newArchive(t)
	idx := productiveGranules(t, 1, 2)[0]
	model, codebook := trainAndSave(t, idx)
	args := granuleTask(t, archive.URL, idx, model, codebook, "")
	fn := granuleKernel(t)

	first := runGranule(t, fn, args)
	if first.FetchedFiles != 3 || first.FetchedBytes == 0 {
		t.Fatalf("first lease reports fetching %d files, %d bytes; want the triple", first.FetchedFiles, first.FetchedBytes)
	}
	published := dirFiles(t, args.OutboxDir)
	again := runGranule(t, fn, args)
	if again.FetchedFiles != 0 || again.FetchedBytes != 0 {
		t.Fatalf("repeat lease reports the first lease's downloads again: %+v", again)
	}
	again.FetchedFiles, again.FetchedBytes = first.FetchedFiles, first.FetchedBytes
	if again != first {
		t.Fatalf("repeat lease recomputed: %+v, first %+v", again, first)
	}
	if err := os.Remove(first.File); err != nil {
		t.Fatal(err)
	}
	if redo := runGranule(t, fn, args); !redo.Started.After(first.Started) {
		t.Fatalf("memo served a vanished file: %+v", redo)
	}
	sameFiles(t, "recomputed outbox", dirFiles(t, args.OutboxDir), published)

	// Inputs are on disk now, so a canceled context is first noticed at
	// the compute gate or, if the free slot wins the select, at the
	// publish check — either way before the write.
	other := granuleKernel(t) // another worker: no memo
	if err := os.Remove(first.File); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := other(ctx, wire(t, args)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled lease returned %v, want context.Canceled", err)
	}
	if left := dirFiles(t, args.OutboxDir); len(left) != 0 {
		t.Fatalf("canceled lease published %d file(s)", len(left))
	}

	if err := os.RemoveAll(args.OutboxDir); err != nil {
		t.Fatal(err)
	}
	if _, err := other(context.Background(), wire(t, args)); err == nil {
		t.Fatal("late duplicate succeeded with no outbox to publish into")
	}
	if _, err := os.Stat(args.OutboxDir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("late duplicate resurrected the outbox (stat: %v)", err)
	}
}

// TestWorkerFetchesAheadOfItsComputeSlots: fetching needs no compute
// slot. On a worker with one slot and a lease-ahead window of two, the
// test holds the only slot; every leased granule's triple still lands in
// its DataDir and nothing is published. Released, the granules compute
// one at a time: no two are ever labeling and writing at once.
func TestWorkerFetchesAheadOfItsComputeSlots(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 3, 2)
	model, codebook := trainAndSave(t, granules[0])
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Hour})
	defer coord.Close()
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()
	w, err := fleet.NewWorker(fleet.WorkerConfig{ID: "gated", CoordinatorURL: cp.URL, Slots: 1, PrefetchWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	gate := w.ComputeGate()
	gate <- struct{}{} // the test takes the only compute slot
	var once sync.Once
	release := func() { once.Do(func() { <-gate }) }
	defer release() // before Stop, which waits for the leases

	tasks := make([]fleet.GranuleArgs, len(granules))
	futs := make([]*fleet.Future, len(granules))
	for i, idx := range granules {
		tasks[i] = granuleTask(t, archive.URL, idx, model, codebook, "")
		if futs[i], err = coord.Submit(ctx, fleet.GranuleFunction, wire(t, tasks[i])); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range tasks {
		g := modis.GranuleID{Satellite: modis.Terra, Year: a.Year, DOY: a.DOY, Index: a.Index}
		for _, kind := range []modis.Kind{modis.L1B, modis.Geo, modis.Cloud} {
			path := filepath.Join(a.DataDir, modis.FileName(modis.Product{Satellite: modis.Terra, Kind: kind}, g))
			for {
				if _, err := os.Stat(path); err == nil {
					break
				}
				if ctx.Err() != nil {
					t.Fatalf("granule %d: %s not fetched while the compute slot was held", a.Index, filepath.Base(path))
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	for _, a := range tasks {
		if left := dirFiles(t, a.OutboxDir); len(left) != 0 {
			t.Fatalf("granule %d published while the only compute slot was held", a.Index)
		}
	}

	release()
	type span struct{ from, to time.Time }
	computing := make([]span, len(futs))
	for i, f := range futs {
		v, err := f.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fleet.ParseGranuleResult(v)
		if err != nil {
			t.Fatal(err)
		}
		if res.File == "" || res.FetchedFiles != 3 {
			t.Fatalf("granule %d: %+v, want a published file and a fetched triple", tasks[i].Index, res)
		}
		from := res.Started.Add(res.Fetch + res.Extract)
		computing[i] = span{from, from.Add(res.Label + res.Write)}
	}
	for i := range computing {
		for j := i + 1; j < len(computing); j++ {
			if computing[i].from.Before(computing[j].to) && computing[j].from.Before(computing[i].to) {
				t.Fatalf("granules %d and %d labeled and wrote at once on one compute slot", tasks[i].Index, tasks[j].Index)
			}
		}
	}
}

// routedTransport runs leases in-process: each worker URL maps to the
// granule function of that worker's kernel set, behind an optional hook
// the test uses to hold, fail or observe a lease.
type routedTransport struct {
	kernels map[string]compute.Function
	before  func(ctx context.Context, url string, args map[string]any) error
	after   func(url string)
}

func (r *routedTransport) Run(ctx context.Context, url, _ string, args map[string]any) (any, error) {
	if r.before != nil {
		if err := r.before(ctx, url, args); err != nil {
			return nil, err
		}
	}
	// The worker's context is its own, not the coordinator's lease: a
	// lease the coordinator gave up on keeps computing.
	v, err := r.kernels[url](context.Background(), args)
	if r.after != nil {
		r.after(url)
	}
	if err != nil {
		return nil, &fleet.TaskError{Msg: err.Error()}
	}
	return v, nil
}

// fleetCounter reads one coordinator counter.
func fleetCounter(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == name && len(f.Series) == 1 {
			return f.Series[0].Value
		}
	}
	t.Fatalf("counter %s not found", name)
	return 0
}

// TestGranuleStolenLeaseExactlyOnce ports the steal chaos cases to the
// granule task, through a whole run: the primary lease hangs, an idle
// worker steals the granule, computes it and the run ships. Then the
// primary finally runs its duplicate, after shipment. Exactly one result
// is accepted and exactly one complete labeled file exists per granule;
// the late duplicate changes nothing in the outbox or at the
// destination — as a byte-identical rewrite when it ran on another
// worker, as a memo hit when the thief shared the primary's process.
func TestGranuleStolenLeaseExactlyOnce(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 1, 2)
	model, codebook := trainAndSave(t, granules[0])
	for _, tc := range []struct {
		name        string
		sharedCache bool
	}{{"thief on another worker", false}, {"thief in the primary's process", true}} {
		t.Run(tc.name, func(t *testing.T) {
			primary := granuleKernel(t)
			thief := primary
			if !tc.sharedCache {
				thief = granuleKernel(t)
			}
			var mu sync.Mutex
			now := time.Now()
			clock := func() time.Time {
				mu.Lock()
				defer mu.Unlock()
				return now
			}
			primaryIn := make(chan struct{})
			release := make(chan struct{})
			var releaseOnce sync.Once
			releaseNow := func() { releaseOnce.Do(func() { close(release) }) }
			duplicateDone := make(chan struct{})
			tr := &routedTransport{
				kernels: map[string]compute.Function{"http://primary": primary, "http://thief": thief},
				before: func(_ context.Context, url string, _ map[string]any) error {
					if url == "http://primary" {
						close(primaryIn)
						<-release // a straggler: holds the lease past shipment
					}
					return nil
				},
				after: func(url string) {
					if url == "http://primary" {
						close(duplicateDone)
					}
				},
			}
			coord := fleet.NewCoordinator(fleet.Config{
				HeartbeatTimeout: time.Hour,
				StealAfter:       time.Second,
				Transport:        tr,
				Clock:            clock,
			})
			defer coord.Close()
			defer releaseNow() // Close joins the held lease's goroutine
			reg := metrics.NewRegistry()
			coord.Instrument(reg)
			if err := coord.Register("primary", "http://primary", 1); err != nil {
				t.Fatal(err)
			}

			cfg := runConfig(t, archive.URL, granules, model, codebook, core.DistributionFleet)
			run, err := core.NewEngine(core.EngineOptions{Fleet: coord}).NewRun(cfg, core.RunOptions{ID: "steal"})
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				rep *core.Report
				err error
			}
			finished := make(chan outcome, 1)
			go func() {
				rep, err := run.Run(context.Background())
				finished <- outcome{rep, err}
			}()

			<-primaryIn
			if err := coord.Register("thief", "http://thief", 1); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			now = now.Add(time.Minute)
			mu.Unlock()
			coord.Sweep() // the lease is a minute old: duplicate it onto the thief
			out := <-finished
			if out.err != nil {
				t.Fatal(out.err)
			}
			if out.rep.TileFiles != 1 || out.rep.FilesShipped != 1 || out.rep.TilesLabeled != out.rep.TilesProduced {
				t.Fatalf("run report %s", out.rep.Summary())
			}
			outbox, dest := dirFiles(t, cfg.OutboxDir), dirFiles(t, cfg.DestDir)
			if len(outbox) != 1 {
				t.Fatalf("outbox holds %d files after the run, want 1", len(outbox))
			}
			sameFiles(t, "dest vs outbox", dest, outbox)

			releaseNow() // the straggler's duplicate runs now, after shipment
			<-duplicateDone
			coord.Close()
			sameFiles(t, "outbox after the late duplicate", dirFiles(t, cfg.OutboxDir), outbox)
			sameFiles(t, "dest after the late duplicate", dirFiles(t, cfg.DestDir), dest)
			if got := fleetCounter(t, reg, "eoml_fleet_tasks_completed_total"); got != 1 {
				t.Fatalf("completed = %v, want 1 (exactly once)", got)
			}
			if got := fleetCounter(t, reg, "eoml_fleet_tasks_stolen_total"); got != 1 {
				t.Fatalf("stolen = %v, want 1", got)
			}
			if got := fleetCounter(t, reg, "eoml_fleet_tasks_submitted_total"); got != 1 {
				t.Fatalf("submitted = %v, want one task for one granule", got)
			}
		})
	}
}

// TestGranuleRequeuedAfterWorkerDeath ports the killed-worker case: the
// victim computes and publishes the granule, then dies before its result
// is collected (requeue-after-partial). The survivor redoes the granule
// over the file already there. One result is accepted, and the outbox
// holds one complete file, identical to what the victim had written.
func TestGranuleRequeuedAfterWorkerDeath(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 1, 2)
	model, codebook := trainAndSave(t, granules[0])

	cfg := runConfig(t, archive.URL, granules, model, codebook, core.DistributionFleet)
	var victimWrote map[string][]byte
	tr := &routedTransport{
		kernels: map[string]compute.Function{"http://a-victim": granuleKernel(t), "http://b-survivor": granuleKernel(t)},
	}
	died := false
	tr.before = func(ctx context.Context, url string, args map[string]any) error {
		if url != "http://a-victim" || died {
			return nil
		}
		died = true
		// The victim's slot ran the whole kernel; the process died before
		// the coordinator could poll the result.
		if _, err := tr.kernels[url](ctx, args); err != nil {
			return err
		}
		victimWrote = dirFiles(t, cfg.OutboxDir)
		return errors.New("connection refused")
	}
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Hour, Transport: tr})
	defer coord.Close()
	reg := metrics.NewRegistry()
	coord.Instrument(reg)
	if err := coord.Register("a-victim", "http://a-victim", 1); err != nil {
		t.Fatal(err)
	}

	run, err := core.NewEngine(core.EngineOptions{Fleet: coord}).NewRun(cfg, core.RunOptions{ID: "killed"})
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := run.Run(context.Background())
		finished <- err
	}()
	// The victim's failed transport evicts it and requeues the lease;
	// the survivor registering is what dispatches it again.
	deadline := time.Now().Add(30 * time.Second)
	for fleetCounter(t, reg, "eoml_fleet_tasks_requeued_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("lease never requeued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := coord.Register("b-survivor", "http://b-survivor", 1); err != nil {
		t.Fatal(err)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if len(victimWrote) != 1 {
		t.Fatalf("victim published %d files before dying, want 1", len(victimWrote))
	}
	sameFiles(t, "outbox after the survivor's redo", dirFiles(t, cfg.OutboxDir), victimWrote)
	sameFiles(t, "dest", dirFiles(t, cfg.DestDir), victimWrote)
	if got := fleetCounter(t, reg, "eoml_fleet_tasks_completed_total"); got != 1 {
		t.Fatalf("completed = %v, want 1 (exactly once)", got)
	}
	if got := fleetCounter(t, reg, "eoml_fleet_workers_evicted_total"); got != 1 {
		t.Fatalf("evicted = %v, want 1", got)
	}
}

// TestFleetRunLabelsExternalTileFiles: the monitor & trigger stage stays
// armed under fleet distribution. A tile file some other writer drops
// into TileDir while the fleet works is still labeled in-process, moved
// and shipped alongside the workers' own products.
func TestFleetRunLabelsExternalTileFiles(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 2, 2)
	model, codebook := trainAndSave(t, granules[0])
	cfg := runConfig(t, archive.URL, granules[:1], model, codebook, core.DistributionFleet)

	// The external writer's product: another granule's tiles with the
	// labels a worker gave them (want) wiped.
	ext := granuleTask(t, archive.URL, granules[1], model, codebook, "")
	extTiles, err := tile.ReadNetCDF(runGranule(t, granuleKernel(t), ext).File)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int16, len(extTiles))
	for i, tl := range extTiles {
		want[i], tl.Label = tl.Label, -1
	}

	// Fleet leases wait until the external file has come out labeled, so
	// the run cannot finish before the monitor path has done its work.
	externalOut := filepath.Join(cfg.OutboxDir, "external.nc")
	tr := &routedTransport{
		kernels: map[string]compute.Function{"http://w": granuleKernel(t)},
		before: func(ctx context.Context, _ string, _ map[string]any) error {
			for {
				if _, err := os.Stat(externalOut); err == nil {
					return nil
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(time.Millisecond):
				}
			}
		},
	}
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Hour, Transport: tr})
	defer coord.Close()
	if err := coord.Register("w", "http://w", 1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(cfg.TileDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tile.WriteNetCDF(filepath.Join(cfg.TileDir, "external.nc"), extTiles); err != nil {
		t.Fatal(err)
	}
	run, err := core.NewEngine(core.EngineOptions{Fleet: coord}).NewRun(cfg, core.RunOptions{ID: "external"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := run.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TilesLabeled != rep.TilesProduced+len(extTiles) {
		t.Fatalf("labeled %d tiles, want the fleet's %d plus the external file's %d",
			rep.TilesLabeled, rep.TilesProduced, len(extTiles))
	}
	labels := destLabels(t, cfg.DestDir)
	if len(labels) != 2 {
		t.Fatalf("shipped %d files, want the granule's and the external one", len(labels))
	}
	got := labels["external.nc"]
	if len(got) != len(want) {
		t.Fatalf("external.nc shipped %d tiles, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || got[i] < 0 {
			t.Fatalf("external.nc tile %d: label %d, want %d", i, got[i], want[i])
		}
	}
	if left := dirFiles(t, cfg.TileDir); len(left) != 0 {
		t.Fatalf("TileDir still holds %d file(s)", len(left))
	}
}

// TestFleetRunStreamMatchesRun: under fleet distribution the batch and
// streaming drivers share one granule driver, so the same granules ship
// byte-identical products either way.
func TestFleetRunStreamMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end equivalence run")
	}
	archive := newArchive(t)
	granules := productiveGranules(t, 3, 2)
	model, codebook := trainAndSave(t, granules[0])
	coord := fleet.NewCoordinator(fleet.Config{})
	defer coord.Close()
	reg := metrics.NewRegistry()
	coord.Instrument(reg)
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()
	startWorkers(t, cp.URL, 2, 1)
	eng := core.NewEngine(core.EngineOptions{Fleet: coord})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	batchCfg := runConfig(t, archive.URL, granules, model, codebook, core.DistributionFleet)
	batch, err := eng.NewRun(batchCfg, core.RunOptions{ID: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	batchProv := provenance.NewStore()
	batch.SetProvenance(batchProv)
	batchRep, err := batch.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	streamCfg := runConfig(t, archive.URL, nil, model, codebook, core.DistributionFleet)
	stream, err := eng.NewRun(streamCfg, core.RunOptions{ID: "stream"})
	if err != nil {
		t.Fatal(err)
	}
	streamProv := provenance.NewStore()
	stream.SetProvenance(streamProv)
	arrivals := make(chan int, len(granules))
	for _, idx := range granules {
		arrivals <- idx
	}
	close(arrivals)
	streamRep, err := stream.RunStream(ctx, arrivals)
	if err != nil {
		t.Fatal(err)
	}

	if batchRep.TilesLabeled == 0 || batchRep.TilesLabeled != streamRep.TilesLabeled ||
		batchRep.TileFiles != streamRep.TileFiles || batchRep.FilesShipped != streamRep.FilesShipped {
		t.Fatalf("batch %s\nstream %s", batchRep.Summary(), streamRep.Summary())
	}
	sameFiles(t, "stream vs batch dest", dirFiles(t, streamCfg.DestDir), dirFiles(t, batchCfg.DestDir))
	if got, want := fleetCounter(t, reg, "eoml_fleet_tasks_submitted_total"), float64(2*len(granules)); got != want {
		t.Fatalf("two runs of %d granules submitted %v tasks, want %v (one per granule)", len(granules), got, want)
	}
	// Both drivers book lineage from the worker's clock: each granule's
	// preprocess and inference activities are the worker's own phases,
	// back to back, not the interval this process spent waiting.
	for name, store := range map[string]*provenance.Store{"batch": batchProv, "stream": streamProv} {
		tiled, labelFrom := map[string]time.Time{}, map[string]time.Time{}
		for _, a := range store.Activities() {
			if a.Name != "preprocess" && a.Name != "inference" {
				continue
			}
			if !a.Ended.After(a.Started) {
				t.Fatalf("%s: %s has no duration: %v .. %v", name, a.ID, a.Started, a.Ended)
			}
			if file, ok := strings.CutPrefix(a.Outputs[0], "tiles:"); ok {
				tiled[file] = a.Ended
			} else {
				labelFrom[strings.TrimPrefix(a.Outputs[0], "labeled:")] = a.Started
			}
		}
		if len(tiled) != batchRep.TileFiles || len(labelFrom) != batchRep.TileFiles {
			t.Fatalf("%s: %d preprocess and %d inference activities for %d tile files",
				name, len(tiled), len(labelFrom), batchRep.TileFiles)
		}
		for file, at := range tiled {
			if !labelFrom[file].Equal(at) {
				t.Fatalf("%s: %s inference starts %v, preprocess ended %v", name, file, labelFrom[file], at)
			}
		}
	}
}
