package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/flows"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/parsl"
	"github.com/eoml/eoml/internal/tensor"
	"github.com/eoml/eoml/internal/tile"
	"github.com/eoml/eoml/internal/transfer"
	"github.com/eoml/eoml/internal/watch"
)

const (
	probeCalls        = 200
	batcherProbeCalls = 50 // each call waits out a 20 ms batch window
	rpcBatchTasks     = 256
)

// probeDeadline bounds every wait inside a probe.
const probeDeadline = 30 * time.Second

// walkLayers is the layer walk: one goroutine takes every granule
// through each layer's public entry point in pipeline order, one span
// per call. It returns median ms per granule for each layer and leaves
// the unlabeled tile files in tileDir for the orchestration probes.
func walkLayers(ctx context.Context, t *tracer, in *inputs, root string) (ledger, string, error) {
	dataDir := filepath.Join(root, "walk-data")
	tileDir := filepath.Join(root, "walk-tiles")
	workDir := filepath.Join(root, "walk-work")
	for _, d := range []string{tileDir, workDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, "", err
		}
	}
	client := laads.NewClient(in.plain.URL(), "")
	arena := tensor.NewShardedArena()
	minCloud := core.DefaultConfig().MinCloudFrac
	var assignSelf, tiles, mb []float64

	for _, g := range in.granules {
		gi := g.ID.Index
		timed := func(name string, fn func() error) (time.Duration, error) {
			id := t.begin(name, 0, gi)
			err := fn()
			d := t.end(id)
			if err != nil {
				return d, fmt.Errorf("layer walk %s, granule %d: %w", name, gi, err)
			}
			return d, nil
		}

		var bytes int64
		if _, err := timed("laads.download", func() error {
			rep, err := client.DownloadAll(ctx, laads.DayTasks(products(), year, in.doy, []int{gi}), dataDir, poolSize)
			bytes = rep.TotalBytes
			return err
		}); err != nil {
			return nil, "", err
		}
		mb = append(mb, float64(bytes)/1e6)

		var files [3]*hdf.File
		if _, err := timed("hdf.decode", func() error {
			for i, p := range products() {
				f, err := hdf.ReadFile(filepath.Join(dataDir, modis.FileName(p, g.ID)))
				if err != nil {
					return err
				}
				files[i] = f
			}
			return nil
		}); err != nil {
			return nil, "", err
		}

		var res *tile.Result
		if _, err := timed("tile.extract", func() (err error) {
			res, err = tile.Extract(files[0], files[1], files[2], tile.Options{TileSize: tilePixels, MinCloudFrac: minCloud, Arena: arena})
			return err
		}); err != nil {
			return nil, "", err
		}
		tiles = append(tiles, float64(len(res.Tiles)))

		path := filepath.Join(tileDir, g.TileFile)
		if _, err := timed("netcdf.write", func() error { return tile.WriteNetCDF(path, res.Tiles) }); err != nil {
			return nil, "", err
		}
		// LabelFile runs first, on a copy (tileDir keeps unlabeled files
		// for the probes), so that it and not its parts pays for cold
		// caches: the parts are then timed on their own, and what they
		// do not cover is the nearest-centroid assign step.
		labeled := filepath.Join(workDir, g.TileFile)
		if err := copyFile(path, labeled); err != nil {
			return nil, "", err
		}
		labelD, err := timed("aicca.label_file", func() error {
			_, err := in.labeler.LabelFile(labeled)
			return err
		})
		if err != nil {
			return nil, "", err
		}
		var read []*tile.Tile
		readD, err := timed("netcdf.read", func() (err error) {
			read, err = tile.ReadNetCDF(path)
			return err
		})
		if err != nil {
			return nil, "", err
		}
		encodeD, err := timed("ricc.encode_f32", func() error {
			_, err := in.labeler.Model.EncodeBatch(read)
			return err
		})
		if err != nil {
			return nil, "", err
		}
		if _, err := timed("ricc.encode_q8", func() error {
			_, err := in.labeler.Model.EncodeBatchQ8(read)
			return err
		}); err != nil {
			return nil, "", err
		}
		appendD, err := timed("netcdf.append", func() error { return tile.AppendLabels(labeled, g.Labels) })
		if err != nil {
			return nil, "", err
		}
		assignSelf = append(assignSelf, millis(labelD-readD-encodeD-appendD))

		destDir := filepath.Join(workDir, "dest")
		if _, err := timed("transfer.ship", func() error {
			svc := transfer.NewService(transfer.Options{VerifyChecksum: true, Parallelism: poolSize})
			srcDir := filepath.Join(workDir, "src")
			if err := os.MkdirAll(srcDir, 0o755); err != nil {
				return err
			}
			if err := os.Rename(labeled, filepath.Join(srcDir, g.TileFile)); err != nil {
				return err
			}
			if _, err := svc.RegisterEndpoint("src", "walk-src", srcDir); err != nil {
				return err
			}
			if _, err := svc.RegisterEndpoint("dst", "walk-dst", destDir); err != nil {
				return err
			}
			id, err := svc.SubmitDir("src", "dst", ".", ".")
			if err != nil {
				return err
			}
			st, err := svc.Wait(ctx, id)
			if err != nil {
				return err
			}
			if st.State != transfer.Succeeded {
				return fmt.Errorf("transfer %s: %v", st.State, st.Errors)
			}
			return os.Remove(filepath.Join(srcDir, g.TileFile))
		}); err != nil {
			return nil, "", err
		}
	}

	out := ledger{}
	out.set("aicca.assign_self_ms", median(assignSelf), len(assignSelf))
	out.set("walk.tiles_per_granule", median(tiles), len(tiles))
	out.set("walk.mb_per_granule", median(mb), len(mb))
	for _, name := range []string{"laads.download", "hdf.decode", "tile.extract", "netcdf.write", "netcdf.read",
		"netcdf.append", "ricc.encode_f32", "ricc.encode_q8", "aicca.label_file", "transfer.ship"} {
		ms := t.millisOf(name)
		out.set(name+"_ms", median(ms), len(ms))
	}
	return out, tileDir, nil
}

// walkSerialMs is what one granule costs when every layer runs back to
// back: the numerator of core.busy_share.
func walkSerialMs(walk ledger, withDownload bool) float64 {
	sum := walk["hdf.decode_ms"].value + walk["tile.extract_ms"].value + walk["netcdf.write_ms"].value +
		walk["aicca.label_file_ms"].value + walk["transfer.ship_ms"].value
	if withDownload {
		sum += walk["laads.download_ms"].value
	}
	return sum
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// timeCalls runs fn n times and returns each call's duration.
func timeCalls(n int, fn func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

func medianOf(d []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(unit)
	}
	return median(v)
}

var noop = func(context.Context, map[string]any) (any, error) { return nil, nil }

// probeOrchestration measures what each orchestration layer costs per
// call when the payload does nothing.
func probeOrchestration(ctx context.Context, in *inputs, tileDir, root string) (ledger, error) {
	ctx, cancel := context.WithTimeout(ctx, probeDeadline)
	defer cancel()
	out := ledger{}

	// watch: one poll over a directory of campaignGranules tile files.
	crawler, err := watch.NewCrawler(watch.Config{Dir: tileDir, Interval: core.DefaultConfig().PollInterval})
	if err != nil {
		return nil, err
	}
	scans, err := timeCalls(probeCalls, func() error { _, err := crawler.ScanOnce(); return err })
	if err != nil {
		return nil, fmt.Errorf("watch probe: %w", err)
	}
	out.set("watch.scan_ms", medianOf(scans, time.Millisecond), len(scans))

	// flows: a two-action definition with no-op providers.
	engine := flows.NewEngine(flows.EngineConfig{})
	for _, name := range []string{"first", "second"} {
		if err := engine.RegisterProvider(name, flows.ActionProvider(noop)); err != nil {
			return nil, err
		}
	}
	def, err := flows.ParseDefinition([]byte(`{"StartAt": "A", "States": {
		"A": {"Type": "Action", "ActionProvider": "first", "Parameters": {"file": "$.file"}, "ResultPath": "$.a", "Next": "B"},
		"B": {"Type": "Action", "ActionProvider": "second", "Parameters": {"file": "$.file"}, "ResultPath": "$.b", "End": true}}}`))
	if err != nil {
		return nil, err
	}
	dispatch, err := timeCalls(probeCalls, func() error {
		run, err := engine.Start(ctx, def, map[string]any{"file": "x"})
		if err != nil {
			return err
		}
		_, err = run.Wait(ctx)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("flows probe: %w", err)
	}
	out.set("flows.dispatch_ms", medianOf(dispatch, time.Millisecond), len(dispatch))

	// aicca batcher: the same file labeled through the batcher and
	// directly; the difference is the wait for the batch window.
	file := filepath.Join(root, "batcher-probe.nc")
	if err := copyFile(filepath.Join(tileDir, in.granules[0].TileFile), file); err != nil {
		return nil, err
	}
	batcher := aicca.NewBatchLabeler(in.labeler, aicca.BatchConfig{
		MaxTiles: core.DefaultConfig().BatchTiles,
		MaxDelay: core.DefaultConfig().BatchDelay,
	})
	batched, err := timeCalls(batcherProbeCalls, func() error { _, err := batcher.LabelFile(file); return err })
	batcher.Close()
	if err != nil {
		return nil, fmt.Errorf("batcher probe: %w", err)
	}
	direct, err := timeCalls(batcherProbeCalls, func() error { _, err := in.labeler.LabelFile(file); return err })
	if err != nil {
		return nil, fmt.Errorf("batcher probe: %w", err)
	}
	out.set("aicca.batcher_wait_ms", medianOf(batched, time.Millisecond)-medianOf(direct, time.Millisecond), len(batched))

	// parsl: DFK.Submit of a no-op app, then Get.
	exec, err := parsl.NewHTEX(parsl.HTEXConfig{Label: "probe", WorkersPerNode: poolSize, InitBlocks: 1, MaxBlocks: 1})
	if err != nil {
		return nil, err
	}
	if err := exec.Start(ctx); err != nil {
		return nil, err
	}
	dfk, err := parsl.NewDFK(exec, parsl.DFKConfig{})
	if err != nil {
		return nil, err
	}
	submits, err := timeCalls(probeCalls, func() error {
		_, err := dfk.Submit("noop", func(context.Context) (any, error) { return nil, nil }).Get(ctx)
		return err
	})
	if serr := exec.Shutdown(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("parsl probe: %w", err)
	}
	out.set("parsl.dispatch_us", medianOf(submits, time.Microsecond), len(submits))

	// compute: Endpoint.Submit of a no-op function, then Get.
	reg := compute.NewRegistry()
	if err := reg.Register("noop", noop); err != nil {
		return nil, err
	}
	ep, err := compute.NewEndpoint("probe", reg, compute.EndpointConfig{Workers: poolSize})
	if err != nil {
		return nil, err
	}
	ep.Start()
	submits, err = timeCalls(probeCalls, func() error {
		fut, err := ep.Submit("noop", nil)
		if err != nil {
			return err
		}
		_, err = fut.Get(ctx)
		return err
	})
	ep.Stop()
	if err != nil {
		return nil, fmt.Errorf("compute probe: %w", err)
	}
	out.set("compute.submit_us", medianOf(submits, time.Microsecond), len(submits))
	return out, nil
}

// probeFleet measures the coordinator→worker round trip with a no-op
// task, and the download cache's miss (ingest) and hit (verify and
// materialise) paths with a local-file fill.
func probeFleet(ctx context.Context, in *inputs, root string) (ledger, error) {
	ctx, cancel := context.WithTimeout(ctx, probeDeadline)
	defer cancel()
	out := ledger{}

	coord := fleet.NewCoordinator(fleet.Config{})
	defer coord.Close()
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID: "probe", CoordinatorURL: cp.URL, Slots: 1, PrefetchWindow: 2,
		Register: func(reg *compute.Registry) error { return reg.Register("noop", noop) },
	})
	if err != nil {
		return nil, err
	}
	if err := w.Start(ctx); err != nil {
		return nil, err
	}
	defer w.Stop()

	rpcs, err := timeCalls(probeCalls, func() error {
		fut, err := coord.Submit(ctx, "noop", nil)
		if err != nil {
			return err
		}
		_, err = fut.Get(ctx)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fleet rpc probe: %w", err)
	}
	out.set("fleet.rpc_ms", medianOf(rpcs, time.Millisecond), len(rpcs))

	start := time.Now()
	futs := make([]*fleet.Future, rpcBatchTasks)
	for i := range futs {
		if futs[i], err = coord.Submit(ctx, "noop", nil); err != nil {
			return nil, fmt.Errorf("fleet batch probe: %w", err)
		}
	}
	for _, f := range futs {
		if _, err := f.Get(ctx); err != nil {
			return nil, fmt.Errorf("fleet batch probe: %w", err)
		}
	}
	out.set("fleet.rpc_batch_per_s", rpcBatchTasks/time.Since(start).Seconds(), rpcBatchTasks)

	cache, err := fleet.NewDownloadCache(filepath.Join(root, "probe-cache"), 0)
	if err != nil {
		return nil, err
	}
	var missMsPerMB, hitMsPerMB []float64
	for i, g := range in.granules {
		name := modis.FileName(modis.MOD021KM, g.ID)
		src := filepath.Join(in.dataDir, name)
		info, err := os.Stat(src)
		if err != nil {
			return nil, err
		}
		mb := float64(info.Size()) / 1e6
		key := fleet.CacheKey{ArchiveURL: "probe", Name: name}
		for pass, into := range []*[]float64{&missMsPerMB, &hitMsPerMB} {
			dest := filepath.Join(root, fmt.Sprintf("probe-dest-%d-%d", i, pass))
			if err := os.MkdirAll(dest, 0o755); err != nil {
				return nil, err
			}
			t0 := time.Now()
			_, hit, err := cache.Fetch(ctx, key, dest, func(context.Context) (string, error) {
				to := filepath.Join(dest, name)
				return to, copyFile(src, to)
			})
			took := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("cache probe: %w", err)
			}
			if hit != (pass == 1) {
				return nil, fmt.Errorf("cache probe: pass %d of %s reported hit=%v", pass, name, hit)
			}
			*into = append(*into, millis(took)/mb)
			if err := os.RemoveAll(dest); err != nil {
				return nil, err
			}
		}
	}
	out.set("fleet.cache_miss_ms_per_mb", median(missMsPerMB), len(missMsPerMB))
	out.set("fleet.cache_hit_ms_per_mb", median(hitMsPerMB), len(hitMsPerMB))
	return out, nil
}
