// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md and micro-benchmarks of the hot components.
//
// Figure/table benches wrap the calibrated discrete-event experiments;
// their custom metrics (tiles/s, MB/s, virtual seconds) are the numbers
// EXPERIMENTS.md compares against the paper. Run with:
//
//	go test -bench=. -benchmem ./...
package eoml_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/cluster42"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/experiments"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/netcdf"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tensor"
	"github.com/eoml/eoml/internal/tile"
)

// ---- Fig. 3: download speed vs product size ------------------------------

func BenchmarkFig3Download(b *testing.B) {
	model := experiments.DefaultDownloadModel()
	var gain float64
	for i := 0; i < b.N; i++ {
		points := experiments.Fig3(model, 3, int64(i)+1)
		by := map[int]map[float64]experiments.Fig3Point{3: {}, 6: {}}
		for _, p := range points {
			by[p.Workers][p.PerProductGB] = p
		}
		gain = by[6][30].MeanMBps - by[3][30].MeanMBps
	}
	b.ReportMetric(gain, "MB/s-gain-6v3-workers")
}

// ---- Fig. 4 / Fig. 5 / Table I: preprocessing scaling --------------------

func scalingBench(b *testing.B, run func(experiments.ScalingConfig) []experiments.ScalingPoint) {
	cfg := experiments.DefaultScalingConfig()
	cfg.Iterations = 2
	var last []experiments.ScalingPoint
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		last = run(cfg)
	}
	b.ReportMetric(last[0].TilesPerSec, "tiles/s-min-scale")
	b.ReportMetric(last[len(last)-1].TilesPerSec, "tiles/s-max-scale")
}

func BenchmarkFig4StrongWorkers(b *testing.B) {
	scalingBench(b, experiments.Fig4StrongWorkers)
}

func BenchmarkFig4StrongNodes(b *testing.B) {
	scalingBench(b, experiments.Fig4StrongNodes)
}

func BenchmarkFig5WeakWorkers(b *testing.B) {
	scalingBench(b, experiments.Fig5WeakWorkers)
}

func BenchmarkFig5WeakNodes(b *testing.B) {
	scalingBench(b, experiments.Fig5WeakNodes)
}

func BenchmarkTable1Throughput(b *testing.B) {
	cfg := experiments.DefaultScalingConfig()
	cfg.Iterations = 1
	var tab experiments.Table1
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		tab = experiments.RunTable1(cfg)
	}
	b.ReportMetric(tab.StrongWorkers[0].TilesPerSec, "tiles/s-1-worker")
	b.ReportMetric(tab.StrongNodes[9].TilesPerSec, "tiles/s-10-nodes")
	b.ReportMetric(tab.WeakNodes[9].TilesPerSec, "tiles/s-10-nodes-weak")
}

// ---- Fig. 6 / Fig. 7: pipeline timeline and latency breakdown ------------

func BenchmarkFig6Timeline(b *testing.B) {
	cfg := experiments.DefaultPipelineConfig()
	var res *experiments.PipelineResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		r, err := experiments.RunPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.TotalSeconds, "virtual-s-pipeline")
	b.ReportMetric(float64(res.Timeline.PeakCount("preprocess")), "peak-preprocess-workers")
}

func BenchmarkFig7Latency(b *testing.B) {
	cfg := experiments.DefaultPipelineConfig()
	var res *experiments.PipelineResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		r, err := experiments.RunPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	if dl, ok := res.Spans.Get("download.launch"); ok {
		b.ReportMetric(dl.Duration(), "virtual-s-download-launch")
	}
	b.ReportMetric(res.MeanFlowOverhead*1000, "ms-flow-action-overhead")
}

// ---- Headline: 12,000 tiles / 80 workers / 10 nodes ----------------------

func BenchmarkHeadline12k(b *testing.B) {
	cfg := experiments.DefaultScalingConfig()
	var secs, rate float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) + 1
		secs, rate = experiments.Headline(cfg)
	}
	b.ReportMetric(secs, "virtual-s-12k-tiles")
	b.ReportMetric(rate, "tiles/s")
}

// ---- Ablations ------------------------------------------------------------

func BenchmarkAblationContention(b *testing.B) {
	var points []experiments.ContentionPoint
	for i := 0; i < b.N; i++ {
		points = experiments.AblationContention(100, nil)
	}
	last := points[len(points)-1]
	b.ReportMetric(last.EfficiencyShared, "efficiency-64-workers")
}

func BenchmarkAblationPoll(b *testing.B) {
	var points []experiments.PollPoint
	for i := 0; i < b.N; i++ {
		p, err := experiments.AblationPoll([]float64{0.1, 2.0})
		if err != nil {
			b.Fatal(err)
		}
		points = p
	}
	b.ReportMetric(points[1].TotalSeconds-points[0].TotalSeconds, "virtual-s-cost-of-slow-poll")
}

func BenchmarkAblationConv(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, err := tensor.NewConvGeom(6, 16, 3, 2, 1, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(8, 6, 32, 32)
	x.Randn(r, 1)
	w := tensor.New(16, 6, 3, 3)
	w.Randn(r, 0.5)
	wmat := tensor.New(6*3*3, 16)
	for oc := 0; oc < 16; oc++ {
		for i := 0; i < 6*3*3; i++ {
			wmat.Data[i*16+oc] = w.Data[oc*6*3*3+i]
		}
	}
	b.Run("im2col", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cols := tensor.Im2Col(x, g)
			_ = tensor.MatMul(cols, wmat)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tensor.ConvDirect(x, w, nil, g)
		}
	})
}

func BenchmarkAblationLinkage(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	data := make([][]float32, 300)
	for i := range data {
		row := make([]float32, 16)
		center := float32(i % 6 * 10)
		for d := range row {
			row[d] = center + float32(r.NormFloat64())
		}
		data[i] = row
	}
	for _, linkage := range []cluster42.Linkage{cluster42.Ward, cluster42.Average} {
		linkage := linkage
		b.Run(linkage.String(), func(b *testing.B) {
			var sse float64
			for i := 0; i < b.N; i++ {
				res, err := cluster42.Agglomerate(data, 6, linkage)
				if err != nil {
					b.Fatal(err)
				}
				sse, err = cluster42.WithinSSE(data, res.Centroids, res.Labels)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sse, "within-SSE")
		})
	}
}

func BenchmarkAblationRotLoss(b *testing.B) {
	tiles := benchTiles(64, 8, 3, 5)
	eval := benchTiles(16, 8, 3, 6)
	for _, beta := range []float64{0, 0.5} {
		beta := beta
		name := "beta0"
		if beta > 0 {
			name = "beta0.5"
		}
		b.Run(name, func(b *testing.B) {
			var invErr float64
			for i := 0; i < b.N; i++ {
				cfg := ricc.Config{
					TileSize: 8, Channels: 3, LatentDim: 8, Beta: beta,
					LR: 2e-3, Epochs: 4, BatchSize: 16, Rotations: 2, Seed: 7,
				}
				m, err := ricc.NewModel(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Train(tiles); err != nil {
					b.Fatal(err)
				}
				invErr, err = m.InvarianceError(eval)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(invErr, "rotation-invariance-error")
		})
	}
}

// ---- Component micro-benchmarks -------------------------------------------

func benchTriple(b *testing.B) (*hdf.File, *hdf.File, *hdf.File, *modis.Generator) {
	b.Helper()
	gen, err := modis.NewGenerator(8)
	if err != nil {
		b.Fatal(err)
	}
	// Index 2 is a verified daytime slot on the synthetic Terra orbit.
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 2}
	mod02, err := gen.Generate(modis.MOD021KM, g)
	if err != nil {
		b.Fatal(err)
	}
	mod03, _ := gen.Generate(modis.MOD03, g)
	mod06, _ := gen.Generate(modis.MOD06L2, g)
	return mod02, mod03, mod06, gen
}

func BenchmarkGranuleGenerate(b *testing.B) {
	gen, err := modis.NewGenerator(8)
	if err != nil {
		b.Fatal(err)
	}
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(modis.MOD021KM, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTileExtract(b *testing.B) {
	mod02, mod03, mod06, gen := benchTriple(b)
	run := func(b *testing.B, opts tile.Options) {
		b.ReportAllocs()
		var tiles int
		for i := 0; i < b.N; i++ {
			res, err := tile.Extract(mod02, mod03, mod06, opts)
			if err != nil {
				b.Fatal(err)
			}
			tiles = len(res.Tiles)
		}
		b.ReportMetric(float64(tiles), "tiles/granule")
	}
	b.Run("plain", func(b *testing.B) {
		run(b, tile.Options{TileSize: gen.TilePixels()})
	})
	b.Run("arena", func(b *testing.B) {
		run(b, tile.Options{TileSize: gen.TilePixels(), Arena: tensor.NewShardedArena()})
	})
}

func BenchmarkNetCDFRoundTrip(b *testing.B) {
	mod02, mod03, mod06, gen := benchTriple(b)
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: gen.TilePixels()})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Tiles) == 0 {
		b.Fatal("no tiles")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := tile.ToNetCDF(res.Tiles)
		if err != nil {
			b.Fatal(err)
		}
		data, err := netcdf.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netcdf.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRICCEncode(b *testing.B) {
	tiles := benchTiles(256, 16, 6, 9)
	cfg := ricc.Config{
		TileSize: 16, Channels: 6, LatentDim: 32, Beta: 0.5,
		LR: 1e-3, Epochs: 1, BatchSize: 32, Rotations: 1, Seed: 1,
	}
	m, err := ricc.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(tiles[:64]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Encode(tiles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tiles)), "tiles/op")
}

func BenchmarkHDFDecode(b *testing.B) {
	gen, _ := modis.NewGenerator(8)
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: 2}
	data, err := gen.GenerateBytes(modis.MOD021KM, g)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hdf.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- PR: blocked kernels, arena reuse, cross-file batching ----------------

// BenchmarkMatMulBlocked compares the naive oracle against the blocked
// SIMD kernel at the 512^3 shape the acceptance criterion names.
func BenchmarkMatMulBlocked(b *testing.B) {
	const m, k, n = 512, 512, 512
	r := rand.New(rand.NewSource(11))
	a := tensor.New(m, k)
	a.Randn(r, 1)
	c := tensor.New(k, n)
	c.Randn(r, 1)
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tensor.MatMulNaive(a, c)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tensor.MatMul(a, c)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkEncodeArena measures the encode hot path three ways over one
// trained model and tile set: the allocate-everything baseline
// (EncodeNoArena, training Forward kernels), the sync.Pool-backed
// contended arena kept as the oracle (EncodeLocked), and the production
// sharded-arena batch-GEMM path (Encode). The PR-5 acceptance bar is
// arena ns/op ≤ noarena — buffer reuse must not cost wall-clock.
func BenchmarkEncodeArena(b *testing.B) {
	tiles := benchTiles(256, 16, 6, 9)
	cfg := ricc.Config{
		TileSize: 16, Channels: 6, LatentDim: 32, Beta: 0.5,
		LR: 1e-3, Epochs: 1, BatchSize: 32, Rotations: 1, Seed: 1,
	}
	m, err := ricc.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(tiles[:64]); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, encode func([]*tile.Tile) ([][]float32, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encode(tiles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tiles)), "tiles/op")
	}
	b.Run("noarena", func(b *testing.B) { run(b, m.EncodeNoArena) })
	b.Run("contended", func(b *testing.B) { run(b, m.EncodeLocked) })
	b.Run("arena", func(b *testing.B) { run(b, m.Encode) })
}

// BenchmarkLabelFileBatched compares per-file labeling against the
// cross-file BatchLabeler. Both variants label the exact same file set
// every iteration and report tiles/s from the same counter — the sum of
// tile counts each LabelFile call returns — so the two numbers measure
// identical work. The batcher is constructed outside the timed region
// (it is a long-lived service in the pipeline, not per-iteration
// setup). AppendLabels is idempotent, so files can be relabeled across
// iterations.
func BenchmarkLabelFileBatched(b *testing.B) {
	const files, perFile = 8, 32
	train := benchTiles(64, 8, 3, 5)
	cfg := ricc.Config{
		TileSize: 8, Channels: 3, LatentDim: 8, Beta: 0,
		LR: 2e-3, Epochs: 2, BatchSize: 16, Rotations: 1, Seed: 7,
	}
	l, _, err := aicca.Train(train, cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("bench%02d.nc", i))
		if err := tile.WriteNetCDF(paths[i], benchTiles(perFile, 8, 3, int64(40+i))); err != nil {
			b.Fatal(err)
		}
	}
	report := func(b *testing.B, labeled int64) {
		if labeled != int64(files*perFile)*int64(b.N) {
			b.Fatalf("labeled %d tiles, want %d", labeled, int64(files*perFile)*int64(b.N))
		}
		b.ReportMetric(float64(labeled)/b.Elapsed().Seconds(), "tiles/s")
	}
	b.Run("sequential", func(b *testing.B) {
		var labeled int64
		for i := 0; i < b.N; i++ {
			for _, p := range paths {
				n, err := l.LabelFile(p)
				if err != nil {
					b.Fatal(err)
				}
				labeled += int64(n)
			}
		}
		report(b, labeled)
	})
	b.Run("batched", func(b *testing.B) {
		bl := aicca.NewBatchLabeler(l, aicca.BatchConfig{MaxTiles: 128})
		var labeled atomic.Int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make(chan error, files)
			for _, p := range paths {
				wg.Add(1)
				go func(p string) {
					defer wg.Done()
					n, err := bl.LabelFile(p)
					if err != nil {
						errs <- err
						return
					}
					labeled.Add(int64(n))
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		bl.Close()
		report(b, labeled.Load())
	})
}

// ---- PR: int8 quantized inference + end-to-end pipeline throughput --------

// BenchmarkEncodeQ8 compares the float32 batch-GEMM encode against the
// int8-quantized path on the RICC-scale model. The acceptance bar is
// int8 tiles/s ≥ 1.5× float32 on the same host; the accuracy side of
// the trade is pinned separately by the aicca label-flip gate.
func BenchmarkEncodeQ8(b *testing.B) {
	tiles := benchTiles(256, 16, 6, 9)
	cfg := ricc.Config{
		TileSize: 16, Channels: 6, LatentDim: 32, Beta: 0.5,
		LR: 1e-3, Epochs: 1, BatchSize: 32, Rotations: 1, Seed: 1,
	}
	m, err := ricc.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(tiles[:64]); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, encode func([]*tile.Tile) ([][]float32, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encode(tiles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tiles))*float64(b.N)/b.Elapsed().Seconds(), "tiles/s")
	}
	b.Run("float32", func(b *testing.B) { run(b, m.EncodeBatch) })
	b.Run("int8", func(b *testing.B) { run(b, m.EncodeBatchQ8) })
}

// BenchmarkMatMulSmall covers the GEMM shapes the work-aware parallel
// cutoff exists for: per-tile conv matmuls too small to amortize a
// goroutine handoff. Before the flops-based cutoff these forked on row
// count alone and lost the win to scheduling overhead.
func BenchmarkMatMulSmall(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	for _, s := range []struct{ m, k, n int }{
		{16, 54, 16},   // conv1 of a 4 px tile batch
		{64, 144, 32},  // conv2 of a small batch
		{32, 512, 512}, // skinny dense slab
	} {
		a := tensor.New(s.m, s.k)
		a.Randn(r, 1)
		c := tensor.New(s.k, s.n)
		c.Randn(r, 1)
		flops := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = tensor.MatMul(a, c)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkPipelineE2E drives the real five-stage pipeline — ingest
// from a LAADS-style archive over HTTP, tile extraction, encode, label,
// ship — and reports whole-pipeline granules/s and tiles/s, the
// end-to-end numbers ROADMAP 3(c) asks for. Model training and granule
// discovery run once outside the timed region; each iteration is one
// full batch run into fresh directories.
func BenchmarkPipelineE2E(b *testing.B) {
	const scale = 64 // tiny granules; tile edge 4 px
	gen, err := modis.NewGenerator(scale)
	if err != nil {
		b.Fatal(err)
	}
	var granules []int
	var trainTiles []*tile.Tile
	for idx := 0; idx < modis.GranulesPerDay && len(granules) < 2; idx++ {
		g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
		mod02, err := gen.Generate(modis.MOD021KM, g)
		if err != nil {
			b.Fatal(err)
		}
		if flag, _ := mod02.AttrString("DayNightFlag"); flag != "Day" {
			continue
		}
		mod03, _ := gen.Generate(modis.MOD03, g)
		mod06, _ := gen.Generate(modis.MOD06L2, g)
		res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tiles) < 3 {
			continue
		}
		granules = append(granules, idx)
		if trainTiles == nil {
			trainTiles = res.Tiles
		}
	}
	if len(granules) < 2 {
		b.Fatalf("found only %d productive granules", len(granules))
	}
	rcfg := ricc.Config{
		TileSize: 4, Channels: 6, LatentDim: 8, Beta: 0.3,
		LR: 2e-3, Epochs: 2, BatchSize: 16, Rotations: 1, Seed: 5,
	}
	k := 4
	if len(trainTiles) < 8 {
		k = 2
	}
	labeler, _, err := aicca.Train(trainTiles, rcfg, k)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := laads.NewServer(laads.ServerConfig{ScaleDown: scale, Token: "bench-token"})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var nGranules, nTiles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := b.TempDir() // fresh directories: every run does the full work
		cfg := core.DefaultConfig()
		cfg.ArchiveURL = ts.URL
		cfg.ArchiveToken = "bench-token"
		cfg.Granules = granules
		cfg.DataDir = filepath.Join(root, "data")
		cfg.TileDir = filepath.Join(root, "tiles")
		cfg.OutboxDir = filepath.Join(root, "outbox")
		cfg.DestDir = filepath.Join(root, "orion")
		cfg.TilePixels = 4
		cfg.PreprocessWorkers = 4
		// PollInterval stays at its default: the bench measures the
		// traffic an operator gets, not a tuned-down tick.
		b.StartTimer()
		p, err := core.New(cfg, labeler)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := p.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if rep.FilesShipped == 0 {
			b.Fatal("pipeline shipped nothing — the bench measured an empty run")
		}
		nGranules += int64(rep.GranulesRequested)
		nTiles += int64(rep.TilesLabeled)
	}
	b.ReportMetric(float64(nGranules)/b.Elapsed().Seconds(), "granules/s")
	b.ReportMetric(float64(nTiles)/b.Elapsed().Seconds(), "tiles/s")
}

// benchTiles fabricates synthetic tiles for ML benches.
func benchTiles(n, ts, nb int, seed int64) []*tile.Tile {
	r := rand.New(rand.NewSource(seed))
	bands := make([]int, nb)
	for b := range bands {
		bands[b] = b
	}
	tiles := make([]*tile.Tile, n)
	for i := range tiles {
		data := make([]float32, nb*ts*ts)
		for j := range data {
			data[j] = float32(r.Float64())
		}
		tiles[i] = &tile.Tile{Data: data, Bands: bands, TileSize: ts, Label: -1}
	}
	return tiles
}
