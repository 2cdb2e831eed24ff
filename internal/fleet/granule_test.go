package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/bufpool"
	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/provenance"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

// kernelSet returns the task functions of a fresh kernel set with one
// compute slot — what one worker would run for its leases.
func kernelSet(t *testing.T) *compute.Registry {
	t.Helper()
	reg := compute.NewRegistry()
	if err := fleet.NewKernels().Register(reg, make(chan struct{}, 1), nil); err != nil {
		t.Fatal(err)
	}
	return reg
}

// lookup returns the named task function of a kernel set.
func lookup(t *testing.T, reg *compute.Registry, function string) compute.Function {
	t.Helper()
	fn, err := reg.Lookup(function)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// granuleKernel returns the worker-side granule function of a fresh
// kernel set — what a worker would run for a lease.
func granuleKernel(t *testing.T) compute.Function {
	t.Helper()
	return lookup(t, kernelSet(t), fleet.GranuleFunction)
}

// granuleTask builds one granule task over fresh directories; the
// outbox exists, as it does once a run has started.
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

// TestWorkerCanceledLeaseSparesSharedFetch: two runs lease the same
// granule onto one worker with a download cache, so the second lease's
// fetches park on the first's. Canceling the first run cancels its
// fetches on the worker; the second lease then fetches for itself and
// completes, instead of failing with the first run's cancellation.
func TestWorkerCanceledLeaseSparesSharedFetch(t *testing.T) {
	laadsSrv, err := laads.NewServer(laads.ServerConfig{ScaleDown: testScale, Token: "test-token"})
	if err != nil {
		t.Fatal(err)
	}
	var hold atomic.Bool
	hold.Store(true)
	held, release := make(chan struct{}, 8), make(chan struct{})
	archive := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if hold.Load() {
			// The first run's downloads hang until its lease is dropped.
			held <- struct{}{}
			select {
			case <-r.Context().Done():
			case <-release: // a failed test must not hang the archive's Close
			}
			return
		}
		laadsSrv.ServeHTTP(rw, r)
	}))
	t.Cleanup(archive.Close)
	t.Cleanup(func() { close(release) }) // runs before the archive's Close

	idx := productiveGranules(t, 1, 2)[0]
	model, codebook := trainAndSave(t, idx)
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Hour})
	defer coord.Close()
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()
	w, err := fleet.NewWorker(fleet.WorkerConfig{ID: "cached", CoordinatorURL: cp.URL, Slots: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel() // before Stop, which waits for the leases
	firstRun, drop := context.WithCancel(ctx)
	defer drop()

	first, err := coord.Submit(firstRun, fleet.GranuleFunction, wire(t, granuleTask(t, archive.URL, idx, model, codebook, "")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the first lease leads the fill of each file in the triple
		select {
		case <-held:
		case <-ctx.Done():
			t.Fatal("the first lease never reached the archive")
		}
	}
	hold.Store(false)
	second, err := coord.Submit(ctx, fleet.GranuleFunction, wire(t, granuleTask(t, archive.URL, idx, model, codebook, "")))
	if err != nil {
		t.Fatal(err)
	}
	for w.Kernels().CacheWaiters() != 3 {
		if ctx.Err() != nil {
			t.Fatal("the second lease never parked on the first lease's fills")
		}
		time.Sleep(time.Millisecond)
	}
	drop()
	if _, err := first.Get(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run's lease = %v, want context.Canceled", err)
	}
	v, err := second.Get(ctx)
	if err != nil {
		t.Fatalf("the other run's lease failed with the canceled one: %v", err)
	}
	res, err := fleet.ParseGranuleResult(v)
	if err != nil {
		t.Fatal(err)
	}
	if res.File == "" || res.FetchedFiles != 3 {
		t.Fatalf("second lease: %+v, want a published file and its own fetched triple", res)
	}
}

// routedTransport runs leases in-process: each worker URL maps to that
// worker's kernel set, behind an optional hook the test uses to hold,
// fail or observe a lease. The kernel runs under the lease's context,
// as on a real worker: a lease the coordinator drops is canceled.
type routedTransport struct {
	kernels map[string]*compute.Registry
	before  func(ctx context.Context, url, function string, args map[string]any) error
	after   func(url string, err error)
}

func (r *routedTransport) Run(ctx context.Context, url, function string, args map[string]any) (v any, err error) {
	if r.after != nil {
		defer func() { r.after(url, err) }()
	}
	if r.before != nil {
		if err := r.before(ctx, url, function, args); err != nil {
			return nil, err
		}
	}
	if v, err = r.call(ctx, url, function, args); err != nil {
		return nil, &fleet.TaskError{Msg: err.Error()}
	}
	return v, nil
}

// call runs the named function of url's kernel set, with no hook.
func (r *routedTransport) call(ctx context.Context, url, function string, args map[string]any) (any, error) {
	fn, err := r.kernels[url].Lookup(function)
	if err != nil {
		return nil, err
	}
	return fn(ctx, args)
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
// is accepted and exactly one complete labeled file exists per granule.
// A duplicate already past its last cancellation check when the thief
// won changes nothing in the outbox or at the destination — as a
// byte-identical rewrite when it ran on another worker, as a memo hit
// when the thief shared the primary's process. A duplicate whose lease
// was canceled first publishes nothing at all.
func TestGranuleStolenLeaseExactlyOnce(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 1, 2)
	model, codebook := trainAndSave(t, granules[0])
	for _, tc := range []struct {
		name        string
		sharedCache bool
		canceled    bool
	}{
		{"thief on another worker", false, false},
		{"thief in the primary's process", true, false},
		{"thief on another worker, canceled duplicate", false, true},
		{"thief in the primary's process, canceled duplicate", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary := kernelSet(t)
			thief := primary
			if !tc.sharedCache {
				thief = kernelSet(t)
			}
			primaryGranule := lookup(t, primary, fleet.GranuleFunction)
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
			duplicateDone := make(chan error, 1)
			errOutOfBand := errors.New("duplicate ran past its cancellation point")
			tr := &routedTransport{
				kernels: map[string]*compute.Registry{"http://primary": primary, "http://thief": thief},
				before: func(ctx context.Context, url, _ string, args map[string]any) error {
					if url != "http://primary" {
						return nil
					}
					close(primaryIn)
					<-release // a straggler: holds the lease past shipment
					if tc.canceled {
						return nil // the kernel runs under the canceled lease
					}
					// The duplicate passed the kernel's last ctx check
					// before the thief won: run it to completion.
					if _, err := primaryGranule(context.WithoutCancel(ctx), args); err != nil {
						return err
					}
					return errOutOfBand
				},
				after: func(url string, err error) {
					if url == "http://primary" {
						duplicateDone <- err
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

			published := outboxStat(t, cfg.OutboxDir)
			releaseNow() // the straggler's duplicate runs now, after shipment
			dupErr := <-duplicateDone
			coord.Close()
			sameFiles(t, "outbox after the late duplicate", dirFiles(t, cfg.OutboxDir), outbox)
			sameFiles(t, "dest after the late duplicate", dirFiles(t, cfg.DestDir), dest)
			rewritten := !os.SameFile(published, outboxStat(t, cfg.OutboxDir))
			switch {
			case !tc.canceled && !errors.Is(dupErr, errOutOfBand):
				t.Fatalf("duplicate past its cancellation point failed: %v", dupErr)
			case tc.canceled && !tc.sharedCache && (dupErr == nil || !strings.Contains(dupErr.Error(), context.Canceled.Error())):
				t.Fatalf("canceled duplicate = %v, want it canceled", dupErr)
			case rewritten != (!tc.canceled && !tc.sharedCache):
				// Only an uncanceled duplicate without the thief's memo
				// renames its copy over the published file.
				t.Fatalf("late duplicate rewrote the outbox file: %v, want %v", rewritten, !rewritten)
			}
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

// outboxStat stats the one file in a run's outbox.
func outboxStat(t *testing.T, dir string) os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("outbox %s: %d entries, %v", dir, len(entries), err)
	}
	fi, err := os.Stat(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	return fi
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
		kernels: map[string]*compute.Registry{"http://a-victim": kernelSet(t), "http://b-survivor": kernelSet(t)},
	}
	died := false
	tr.before = func(ctx context.Context, url, function string, args map[string]any) error {
		if url != "http://a-victim" || died {
			return nil
		}
		died = true
		// The victim's slot ran the whole kernel; the process died before
		// it could answer the lease.
		if _, err := tr.call(ctx, url, function, args); err != nil {
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
// into TileDir becomes one eoml.label_file lease, labeled on a worker
// process with the labels Labeler.LabelTiles gives its tiles, and
// shipped alongside the workers' own products.
func TestFleetRunLabelsExternalTileFiles(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 2, 2)
	model, codebook := trainAndSave(t, granules[0])
	cfg := runConfig(t, archive.URL, granules[:1], model, codebook, core.DistributionFleet)
	want := externalTileFile(t, archive.URL, granules[1], model, codebook, filepath.Join(cfg.TileDir, "external.nc"))

	coord := fleet.NewCoordinator(fleet.Config{})
	defer coord.Close()
	reg := metrics.NewRegistry()
	coord.Instrument(reg)
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()
	startWorkers(t, cp.URL, 1, 1)
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
	if rep.TilesLabeled != rep.TilesProduced+len(want) {
		t.Fatalf("labeled %d tiles, want the fleet's %d plus the external file's %d",
			rep.TilesLabeled, rep.TilesProduced, len(want))
	}
	if got := fleetCounter(t, reg, "eoml_fleet_tasks_submitted_total"); got != 2 {
		t.Fatalf("submitted %v tasks, want one granule and one label-file lease", got)
	}
	labels := destLabels(t, cfg.DestDir)
	if len(labels) != 2 {
		t.Fatalf("shipped %d files, want the granule's and the external one", len(labels))
	}
	sameLabels(t, "external.nc", labels["external.nc"], want)
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

// cachedGranuleKernel returns the granule function of a fresh kernel set
// with a download cache in cacheDir, and the registry its cache series
// are on.
func cachedGranuleKernel(t *testing.T, cacheDir string) (compute.Function, *metrics.Registry) {
	t.Helper()
	k, err := fleet.NewKernelsWith(fleet.KernelConfig{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	reg := compute.NewRegistry()
	if err := k.Register(reg, make(chan struct{}, 1), nil); err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	k.Instrument(mreg)
	return lookup(t, reg, fleet.GranuleFunction), mreg
}

// cacheSeries reads one eoml_fleet_cache_* series of the download cache.
func cacheSeries(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if len(s.Labels) == 1 && s.Labels[0].Value == "download" {
				return s.Value
			}
		}
	}
	t.Fatalf("series %s{cache=\"download\"} not found", name)
	return 0
}

// TestGranuleColdFetchWritesOnce: a cold granule task's fetched inputs
// are each one file on disk — the DataDir file the download wrote is
// the cache entry, linked, not a second copy.
func TestGranuleColdFetchWritesOnce(t *testing.T) {
	archive := newArchive(t)
	idx := productiveGranules(t, 1, 2)[0]
	model, codebook := trainAndSave(t, idx)
	cacheDir := t.TempDir()
	fn, _ := cachedGranuleKernel(t, cacheDir)
	args := granuleTask(t, archive.URL, idx, model, codebook, "")
	if res := runGranule(t, fn, args); res.FetchedFiles != 3 || res.File == "" {
		t.Fatalf("cold task: %+v", res)
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.granule"))
	if err != nil || len(entries) != 3 {
		t.Fatalf("cache holds %d entries (%v), want 3", len(entries), err)
	}
	inputs, err := os.ReadDir(args.DataDir)
	if err != nil || len(inputs) != 3 {
		t.Fatalf("DataDir holds %d files (%v), want the triple", len(inputs), err)
	}
	for _, in := range inputs {
		info, err := os.Stat(filepath.Join(args.DataDir, in.Name()))
		if err != nil {
			t.Fatal(err)
		}
		linked := false
		for _, e := range entries {
			if ei, err := os.Stat(e); err == nil && os.SameFile(info, ei) {
				linked = true
			}
		}
		if !linked {
			t.Fatalf("%s is not its cache entry: the fetch was written twice", in.Name())
		}
	}
}

// TestGranuleRefetchesCorruptedEntry: a cache entry corrupted behind the
// cache's back fails its hit verification in the next run's task, which
// evicts it, fetches that product again, and publishes the same labeled
// file as the first run.
func TestGranuleRefetchesCorruptedEntry(t *testing.T) {
	archive := newArchive(t)
	idx := productiveGranules(t, 1, 2)[0]
	model, codebook := trainAndSave(t, idx)
	cacheDir := t.TempDir()
	fn, reg := cachedGranuleKernel(t, cacheDir)
	first := granuleTask(t, archive.URL, idx, model, codebook, "")
	runGranule(t, fn, first)
	want := dirFiles(t, first.OutboxDir)

	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.granule"))
	if err != nil || len(entries) != 3 {
		t.Fatalf("cache holds %d entries (%v), want 3", len(entries), err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	second := granuleTask(t, archive.URL, idx, model, codebook, "")
	res := runGranule(t, fn, second)
	if res.FetchedFiles != 1 || res.File == "" {
		t.Fatalf("after corruption: fetched %d files, published %q; want 1 refetch and a file", res.FetchedFiles, res.File)
	}
	sameFiles(t, "outbox after refetch", dirFiles(t, second.OutboxDir), want)
	if ev, hits := cacheSeries(t, reg, "eoml_fleet_cache_evictions_total"), cacheSeries(t, reg, "eoml_fleet_cache_hits_total"); ev != 1 || hits != 2 {
		t.Fatalf("evictions=%v hits=%v, want 1 and 2", ev, hits)
	}
}

// corruptingArchive serves the synthetic archive, except that the first
// response for the file named name carries one flipped byte in the
// middle of its body — a torn or corrupted transfer the HTTP layer does
// not notice.
func corruptingArchive(t *testing.T, name string) *httptest.Server {
	t.Helper()
	srv, err := laads.NewServer(laads.ServerConfig{ScaleDown: testScale, Token: "test-token"})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/"+name) || served.Swap(true) {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		body[len(body)/2] ^= 0x40
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGranuleRefetchesCorruptInput: an input whose bytes fail their
// decode — fetched corrupt from the archive, with the download cache on
// or off, or left corrupt in DataDir by an earlier fetch — fails the
// lease and is not left in DataDir, so the next lease of the granule
// fetches that product again and publishes the labeled file.
func TestGranuleRefetchesCorruptInput(t *testing.T) {
	idx := productiveGranules(t, 1, 2)[0]
	model, codebook := trainAndSave(t, idx)
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
	geo := modis.FileName(modis.Product{Satellite: g.Satellite, Kind: modis.Geo}, g)

	clean := newArchive(t)
	want := dirFiles(t, filepath.Dir(runGranule(t, granuleKernel(t), granuleTask(t, clean.URL, idx, model, codebook, "")).File))

	for _, tc := range []struct {
		name   string
		cached bool
		onDisk bool // the corrupt copy is in DataDir before the first lease
	}{
		{name: "fetched", cached: false},
		{name: "fetched-cached", cached: true},
		{name: "on-disk", cached: false, onDisk: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			archive := corruptingArchive(t, geo)
			fn := granuleKernel(t)
			if tc.cached {
				fn, _ = cachedGranuleKernel(t, t.TempDir())
			}
			args := granuleTask(t, archive.URL, idx, model, codebook, "")
			if tc.onDisk {
				// An earlier fetch through the same archive left the
				// corrupt body in DataDir.
				c := laads.NewClient(archive.URL, "test-token")
				if _, err := c.Download(context.Background(), modis.Product{Satellite: g.Satellite, Kind: modis.Geo}, g.Year, g.DOY, geo, args.DataDir); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := fn(context.Background(), wire(t, args)); err == nil || !strings.Contains(err.Error(), "CRC") {
				t.Fatalf("lease over a corrupt input = %v, want a CRC failure", err)
			}
			if _, err := os.Stat(filepath.Join(args.DataDir, geo)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the corrupt input stayed in DataDir: %v", err)
			}
			res := runGranule(t, fn, args)
			if res.FetchedFiles != 1 || res.File == "" {
				t.Fatalf("retry fetched %d files, published %q; want the one refetch and a file", res.FetchedFiles, res.File)
			}
			sameFiles(t, "outbox after the retry", dirFiles(t, args.OutboxDir), want)
		})
	}
}

// TestGranulePoisonedBuffersPublishSameFiles: a granule's input buffers
// go back to the read pool as soon as tile.Extract returns, before its
// tiles are labeled and written, so no tile may alias them. Poisoning
// every buffer as it is released, a cold pass and then a warm pass (every
// input a cache hit) over several granules publish files byte-identical
// to the same passes with released buffers dropped, not reused; and each
// granule task releases exactly its three inputs.
func TestGranulePoisonedBuffersPublishSameFiles(t *testing.T) {
	archive := newArchive(t)
	granules := productiveGranules(t, 3, 2)
	model, codebook := trainAndSave(t, granules[0])
	run := func(release func([]byte)) map[string][]byte {
		defer fleet.SetReleaseBuffer(release)()
		fn, reg := cachedGranuleKernel(t, t.TempDir())
		out := map[string][]byte{}
		for _, pass := range []string{"cold", "warm"} {
			for _, idx := range granules {
				args := granuleTask(t, archive.URL, idx, model, codebook, "")
				if res := runGranule(t, fn, args); res.File == "" {
					t.Fatalf("%s granule %d published nothing", pass, idx)
				}
				for name, data := range dirFiles(t, args.OutboxDir) {
					out[pass+"/"+name] = data
				}
			}
		}
		if hits := cacheSeries(t, reg, "eoml_fleet_cache_hits_total"); hits != float64(3*len(granules)) {
			t.Fatalf("warm pass hit the cache %v times, want %d", hits, 3*len(granules))
		}
		return out
	}
	unpooled := run(func([]byte) {})
	var released atomic.Int64
	poisoned := run(func(b []byte) {
		released.Add(1)
		for i := range b {
			b[i] = 0xA5
		}
		bufpool.Put(b)
	})
	sameFiles(t, "poisoned buffers", poisoned, unpooled)
	if got, want := released.Load(), int64(2*3*len(granules)); got != want {
		t.Fatalf("%d buffers released, want %d (three per granule task)", got, want)
	}
}
