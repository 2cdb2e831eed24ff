// Multi-process worker-fleet smoke and scaling benchmarks: real
// eoml-worker processes (this test binary re-exec'd in worker mode)
// registering over HTTP with an in-process coordinator, leasing tile
// extraction and inference against a synthetic LAADS archive.
//
// The archive shapes per-connection bandwidth so granule fetch latency
// — not this host's single CPU — bounds throughput; that is what makes
// strong/weak scaling measurable with worker processes on one machine,
// mirroring the paper's multi-facility setup where workers pull data
// near their own compute.
package eoml_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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

// Environment contract between the parent test and re-exec'd workers.
const (
	workerEnvCoord    = "EOML_FLEET_WORKER_COORD"
	workerEnvID       = "EOML_FLEET_WORKER_ID"
	workerEnvSlots    = "EOML_FLEET_WORKER_SLOTS"
	workerEnvPrefetch = "EOML_FLEET_WORKER_PREFETCH"
	workerEnvCacheDir = "EOML_FLEET_WORKER_CACHE_DIR"
)

// TestMain turns this test binary into a fleet worker process when the
// coordinator env var is set (the helper-process pattern): the worker
// serves the standard kernels until its stdin closes, then drains.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnvCoord) != "" {
		runFleetWorkerProcess()
		return
	}
	os.Exit(m.Run())
}

func runFleetWorkerProcess() {
	slots, _ := strconv.Atoi(os.Getenv(workerEnvSlots))
	prefetch, _ := strconv.Atoi(os.Getenv(workerEnvPrefetch))
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:             os.Getenv(workerEnvID),
		CoordinatorURL: os.Getenv(workerEnvCoord),
		Slots:          slots,
		PrefetchWindow: prefetch,
		CacheDir:       os.Getenv(workerEnvCacheDir),
	})
	if err == nil {
		err = w.Start(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("ready")
	_, _ = io.Copy(io.Discard, os.Stdin) // parent closes stdin to stop us
	w.Stop()
}

// workerProc is one spawned worker process, stopped by closing stdin.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// workerOpts tunes spawned worker processes beyond slot count.
type workerOpts struct {
	// prefetch is the granule lease-ahead window (0 = off).
	prefetch int
	// cacheDir enables the content-addressed download cache.
	cacheDir string
}

// startWorkerProcs re-execs this binary n times in worker mode against
// the coordinator URL (prefetch on, cache off — the default fleet
// configuration) and waits until every worker reports ready.
func startWorkerProcs(tb testing.TB, coordURL string, n, slots int) []workerProc {
	return startWorkerProcsOpts(tb, coordURL, n, slots, workerOpts{prefetch: 4})
}

// startWorkerProcsOpts is startWorkerProcs with explicit prefetch/cache
// settings for the benchmark variants.
func startWorkerProcsOpts(tb testing.TB, coordURL string, n, slots int, opts workerOpts) []workerProc {
	tb.Helper()
	procs := make([]workerProc, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			workerEnvCoord+"="+coordURL,
			workerEnvID+"="+fmt.Sprintf("proc-worker-%d", i),
			workerEnvSlots+"="+strconv.Itoa(slots),
			workerEnvPrefetch+"="+strconv.Itoa(opts.prefetch),
			workerEnvCacheDir+"="+opts.cacheDir,
		)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			tb.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			tb.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			tb.Fatal(err)
		}
		procs = append(procs, workerProc{cmd: cmd, stdin: stdin})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil || line != "ready\n" {
			tb.Fatalf("worker %d did not come up: %q, %v", i, line, err)
		}
	}
	return procs
}

func stopWorkerProcs(tb testing.TB, procs []workerProc) {
	tb.Helper()
	for _, p := range procs {
		_ = p.stdin.Close()
	}
	for i, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			tb.Errorf("worker process %d exit: %v", i, err)
		}
	}
}

// fleetDayGranules returns want day-side granule indices, granules
// that actually yield tiles first so every prefix of the slice keeps
// the inference stage busy.
func fleetDayGranules(tb testing.TB, want int) []int {
	tb.Helper()
	gen, err := modis.NewGenerator(64)
	if err != nil {
		tb.Fatal(err)
	}
	var productive, quiet []int
	for idx := 0; idx < modis.GranulesPerDay && len(productive)+len(quiet) < want; idx++ {
		g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
		mod02, err := gen.Generate(modis.MOD021KM, g)
		if err != nil {
			tb.Fatal(err)
		}
		if flag, _ := mod02.AttrString("DayNightFlag"); flag != "Day" {
			continue
		}
		mod03, _ := gen.Generate(modis.MOD03, g)
		mod06, _ := gen.Generate(modis.MOD06L2, g)
		res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
		if err != nil {
			tb.Fatal(err)
		}
		if len(res.Tiles) >= 2 {
			productive = append(productive, idx)
		} else {
			quiet = append(quiet, idx)
		}
	}
	out := append(productive, quiet...)
	if len(out) < want {
		tb.Fatalf("found only %d day-side granules, want %d", len(out), want)
	}
	return out[:want]
}

// fleetTrainArtifacts trains a tiny labeler on one granule and saves
// model+codebook where worker processes can load them.
func fleetTrainArtifacts(tb testing.TB, granuleIdx int) (string, string) {
	tb.Helper()
	gen, _ := modis.NewGenerator(64)
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: granuleIdx}
	mod02, _ := gen.Generate(modis.MOD021KM, g)
	mod03, _ := gen.Generate(modis.MOD03, g)
	mod06, _ := gen.Generate(modis.MOD06L2, g)
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
	if err != nil {
		tb.Fatal(err)
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
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	model := filepath.Join(dir, "ricc.hdf")
	codebook := filepath.Join(dir, "codebook.hdf")
	if err := labeler.Model.Save(model); err != nil {
		tb.Fatal(err)
	}
	if err := labeler.Codebook.Save(codebook); err != nil {
		tb.Fatal(err)
	}
	return model, codebook
}

// fleetRunConfig builds a fleet-distributed run over fresh directories.
func fleetRunConfig(tb testing.TB, archiveURL, token string, granules []int, model, codebook string) core.Config {
	tb.Helper()
	root := tb.TempDir()
	cfg := core.DefaultConfig()
	cfg.Granules = granules
	cfg.ArchiveURL = archiveURL
	cfg.ArchiveToken = token
	cfg.DataDir = filepath.Join(root, "data")
	cfg.TileDir = filepath.Join(root, "tiles")
	cfg.OutboxDir = filepath.Join(root, "outbox")
	cfg.DestDir = filepath.Join(root, "dest")
	cfg.TilePixels = 4
	cfg.PollInterval = 10 * time.Millisecond
	cfg.BatchDelay = 2 * time.Millisecond
	cfg.ModelPath = model
	cfg.CodebookPath = codebook
	cfg.Distribution = core.DistributionFleet
	return cfg
}

// TestFleetSmoke is `make fleet-smoke`: a two-process worker fleet
// runs one small campaign end to end — workers fetch granule refs from
// the archive, extract tiles, label them, and the run ships the
// results — exercising the same binary path cmd/eoml-worker wraps.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	srv, err := laads.NewServer(laads.ServerConfig{ScaleDown: 64, Token: "smoke-token"})
	if err != nil {
		t.Fatal(err)
	}
	archive := httptest.NewServer(srv)
	defer archive.Close()

	granules := fleetDayGranules(t, 2)
	model, codebook := fleetTrainArtifacts(t, granules[0])

	coord := fleet.NewCoordinator(fleet.Config{})
	defer coord.Close()
	cp := httptest.NewServer(coord.Handler())
	defer cp.Close()
	// Workers share one download-cache directory so the warm second pass
	// below can assert the cache, not worker affinity, serves the bytes.
	procs := startWorkerProcsOpts(t, cp.URL, 2, 1, workerOpts{prefetch: 4, cacheDir: t.TempDir()})
	defer stopWorkerProcs(t, procs)

	if ws := coord.Workers(); len(ws) != 2 {
		t.Fatalf("registered workers = %d, want 2", len(ws))
	}

	cfg := fleetRunConfig(t, archive.URL, "smoke-token", granules, model, codebook)
	eng := core.NewEngine(core.EngineOptions{Fleet: coord})
	run, err := eng.NewRun(cfg, core.RunOptions{ID: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, coldBefore := srv.Stats()
	rep, err := run.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TilesProduced == 0 || rep.TilesLabeled != rep.TilesProduced {
		t.Fatalf("labeled %d of %d tiles", rep.TilesLabeled, rep.TilesProduced)
	}
	if rep.FilesShipped == 0 {
		t.Fatal("fleet run shipped nothing")
	}
	// Bytes moved on the workers, not through this process, and the
	// workers reported every byte the archive sent. The archive counts a
	// chunk after writing it, so its total can trail the reads a moment.
	for deadline := time.Now().Add(10 * time.Second); ; {
		_, coldAfter := srv.Stats()
		if rep.BytesDownloaded == coldAfter-coldBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers reported %d bytes fetched, the archive sent %d", rep.BytesDownloaded, coldAfter-coldBefore)
		}
		time.Sleep(time.Millisecond)
	}
	for _, f := range rep.Metrics {
		if f.Name == "eoml_laads_client_requests_total" {
			for _, s := range f.Series {
				if s.Value != 0 {
					t.Fatalf("the submitting process made %v archive requests; refs should ship, not bytes", s.Value)
				}
			}
		}
	}
	// The labels the workers wrote must be real labels, not sentinels.
	ents, err := os.ReadDir(cfg.DestDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		tiles, err := tile.ReadNetCDF(filepath.Join(cfg.DestDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, tl := range tiles {
			if tl.Label < 0 {
				t.Fatalf("%s tile %d still unlabeled", e.Name(), i)
			}
		}
	}

	// Warm-cache second pass: the same granule set through fresh run
	// directories must be served entirely from the workers' download
	// cache — zero archive requests, zero archive bytes.
	reqBefore, bytesBefore := srv.Stats()
	cfg2 := fleetRunConfig(t, archive.URL, "smoke-token", granules, model, codebook)
	run2, err := eng.NewRun(cfg2, core.RunOptions{ID: "smoke-warm"})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := run2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TilesProduced != rep.TilesProduced || rep2.TilesLabeled != rep.TilesLabeled {
		t.Fatalf("warm pass produced %d/%d tiles, cold pass %d/%d",
			rep2.TilesProduced, rep2.TilesLabeled, rep.TilesProduced, rep.TilesLabeled)
	}
	reqAfter, bytesAfter := srv.Stats()
	if reqAfter != reqBefore || bytesAfter != bytesBefore {
		t.Fatalf("warm pass hit the archive: %d requests, %d bytes (want 0, 0)",
			reqAfter-reqBefore, bytesAfter-bytesBefore)
	}
	if rep2.FilesDownloaded != 0 || rep2.BytesDownloaded != 0 {
		t.Fatalf("warm pass reports files=%d bytes=%d downloaded, want 0 0", rep2.FilesDownloaded, rep2.BytesDownloaded)
	}
}

// BenchmarkFleetScaling measures whole-pipeline granules/s against
// 1/2/4/8 real worker processes. Strong scaling holds the granule set
// fixed; weak scaling grows it proportionally (2 granules per worker).
// The archive throttles each connection to 256 KiB/s, so fetch latency
// dominates and adding worker processes adds real throughput even on a
// single-CPU host — the regime the paper's multi-facility runs live in.
func BenchmarkFleetScaling(b *testing.B) {
	const token = "bench-token"
	srv, err := laads.NewServer(laads.ServerConfig{
		ScaleDown:          64,
		Token:              token,
		PerConnBytesPerSec: 256 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	archive := httptest.NewServer(srv)
	defer archive.Close()

	granules := fleetDayGranules(b, 16)
	model, codebook := fleetTrainArtifacts(b, granules[0])

	// One timed run over set; returns granules processed.
	runOnce := func(b *testing.B, eng *core.Engine, set []int) int64 {
		b.Helper()
		b.StopTimer()
		cfg := fleetRunConfig(b, archive.URL, token, set, model, codebook)
		run, err := eng.NewRun(cfg, core.RunOptions{ID: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := run.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if rep.GranulesRequested != len(set) {
			b.Fatalf("processed %d of %d granules", rep.GranulesRequested, len(set))
		}
		return int64(rep.GranulesRequested)
	}

	// Headline strong/weak series: prefetch on, cache off — directly
	// comparable against the BENCH_9 series of the same names, which
	// ran without prefetching.
	for _, mode := range []string{"strong", "weak"} {
		for _, workers := range []int{1, 2, 4, 8} {
			set := granules[:8] // strong: fixed work
			if mode == "weak" {
				set = granules[:2*workers] // weak: work ∝ fleet size
			}
			set, workers := set, workers
			b.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(b *testing.B) {
				coord := fleet.NewCoordinator(fleet.Config{})
				defer coord.Close()
				cp := httptest.NewServer(coord.Handler())
				defer cp.Close()
				procs := startWorkerProcs(b, cp.URL, workers, 1)
				defer stopWorkerProcs(b, procs)
				eng := core.NewEngine(core.EngineOptions{Fleet: coord})

				var nGranules int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nGranules += runOnce(b, eng, set)
				}
				b.ReportMetric(float64(nGranules)/b.Elapsed().Seconds(), "granules/s")
			})
		}
	}

	// Ablation: the same workload with the prefetch pipeline disabled,
	// isolating its contribution from batching's.
	b.Run("prefetchoff/workers=1", func(b *testing.B) {
		coord := fleet.NewCoordinator(fleet.Config{})
		defer coord.Close()
		cp := httptest.NewServer(coord.Handler())
		defer cp.Close()
		procs := startWorkerProcsOpts(b, cp.URL, 1, 1, workerOpts{})
		defer stopWorkerProcs(b, procs)
		eng := core.NewEngine(core.EngineOptions{Fleet: coord})

		var nGranules int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nGranules += runOnce(b, eng, granules[:8])
		}
		b.ReportMetric(float64(nGranules)/b.Elapsed().Seconds(), "granules/s")
	})

	// Cold cache: the download cache is on but starts empty every
	// iteration (fresh directory, restarted worker), measuring the
	// cache's ingest overhead on first contact.
	b.Run("coldcache/workers=1", func(b *testing.B) {
		coord := fleet.NewCoordinator(fleet.Config{})
		defer coord.Close()
		cp := httptest.NewServer(coord.Handler())
		defer cp.Close()
		eng := core.NewEngine(core.EngineOptions{Fleet: coord})

		var nGranules int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			procs := startWorkerProcsOpts(b, cp.URL, 1, 1, workerOpts{prefetch: 4, cacheDir: b.TempDir()})
			nGranules += runOnce(b, eng, granules[:8])
			b.StopTimer()
			stopWorkerProcs(b, procs)
			b.StartTimer()
		}
		b.ReportMetric(float64(nGranules)/b.Elapsed().Seconds(), "granules/s")
	})

	// Warm cache: one un-timed pass fills the cache, then every timed
	// run is served from disk — and the archive must see zero traffic
	// while the timer runs.
	b.Run("warmcache/workers=1", func(b *testing.B) {
		coord := fleet.NewCoordinator(fleet.Config{})
		defer coord.Close()
		cp := httptest.NewServer(coord.Handler())
		defer cp.Close()
		procs := startWorkerProcsOpts(b, cp.URL, 1, 1, workerOpts{prefetch: 4, cacheDir: b.TempDir()})
		defer stopWorkerProcs(b, procs)
		eng := core.NewEngine(core.EngineOptions{Fleet: coord})

		runOnce(b, eng, granules[:8]) // warm the cache, un-timed
		_, bytesBefore := srv.Stats()
		var nGranules int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nGranules += runOnce(b, eng, granules[:8])
		}
		b.StopTimer()
		if _, bytesAfter := srv.Stats(); bytesAfter != bytesBefore {
			b.Fatalf("warm-cache runs fetched %d archive bytes, want 0", bytesAfter-bytesBefore)
		}
		b.ReportMetric(float64(nGranules)/b.Elapsed().Seconds(), "granules/s")
	})
}
