package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tensor"
	"github.com/eoml/eoml/internal/tile"
)

// Names of the task functions every worker serves. Task arguments ship
// granule *references* — archive coordinates and shared-storage paths —
// never pixel bytes.
const (
	PreprocessFunction = "eoml.preprocess_granule"
	LabelFunction      = "eoml.label_file"
)

// PreprocessArgs is the wire form of one tile-extraction task: which
// granule, where its HDF triple lives (DataDir), where the tile NetCDF
// goes (TileDir), and optionally which archive to fetch missing inputs
// from — the multi-facility case where the worker does not share the
// submitter's filesystem.
type PreprocessArgs struct {
	Satellite    string  `json:"satellite"`
	Year         int     `json:"year"`
	DOY          int     `json:"doy"`
	Index        int     `json:"index"`
	DataDir      string  `json:"data_dir"`
	TileDir      string  `json:"tile_dir"`
	TilePixels   int     `json:"tile_pixels"`
	MinCloudFrac float64 `json:"min_cloud_frac"`
	ArchiveURL   string  `json:"archive_url,omitempty"`
	ArchiveToken string  `json:"archive_token,omitempty"`
}

// Args flattens to the compute fabric's map form.
func (a PreprocessArgs) Args() map[string]any {
	return map[string]any{
		"satellite": a.Satellite, "year": a.Year, "doy": a.DOY, "index": a.Index,
		"data_dir": a.DataDir, "tile_dir": a.TileDir,
		"tile_pixels": a.TilePixels, "min_cloud_frac": a.MinCloudFrac,
		"archive_url": a.ArchiveURL, "archive_token": a.ArchiveToken,
	}
}

// PreprocessResult reports one granule's extraction outcome.
type PreprocessResult struct {
	Tiles int    `json:"tiles"`
	File  string `json:"file"`
}

// ParsePreprocessResult decodes a task result from its wire form.
func ParsePreprocessResult(v any) (PreprocessResult, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return PreprocessResult{}, fmt.Errorf("fleet: preprocess result is %T, want map", v)
	}
	return PreprocessResult{Tiles: intFrom(m, "tiles"), File: stringFrom(m, "file")}, nil
}

// LabelArgs is the wire form of one inference task: the tile file to
// label in place plus the model/codebook refs the worker loads (and
// caches) from shared storage.
type LabelArgs struct {
	File      string `json:"file"`
	Model     string `json:"model"`
	Codebook  string `json:"codebook"`
	Precision string `json:"precision,omitempty"`
}

// Args flattens to the compute fabric's map form.
func (a LabelArgs) Args() map[string]any {
	return map[string]any{
		"file": a.File, "model": a.Model, "codebook": a.Codebook, "precision": a.Precision,
	}
}

// LabelResult reports one file's labeling outcome.
type LabelResult struct {
	Labeled int `json:"labeled"`
}

// ParseLabelResult decodes a task result from its wire form.
func ParseLabelResult(v any) (LabelResult, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return LabelResult{}, fmt.Errorf("fleet: label result is %T, want map", v)
	}
	return LabelResult{Labeled: intFrom(m, "labeled")}, nil
}

// KernelConfig tunes the worker kernel set's caches and archive access.
// The zero value disables the on-disk download cache and admits every
// archive request (no quota), matching the PR-9 behavior.
type KernelConfig struct {
	// CacheDir, when set, enables the content-addressed on-disk download
	// cache: archive fetches land there and re-leases hit disk instead
	// of the archive.
	CacheDir string
	// CacheMaxBytes bounds the download cache; <= 0 means unbounded.
	CacheMaxBytes int64
	// ResultCacheSize bounds memoized task results; 0 means 1024.
	ResultCacheSize int
	// Quota, when set, gates archive fetches on the owning tenant's
	// token bucket — the prefetcher shares it with the compute slots, so
	// overlap never exceeds the facility's request-rate agreement.
	Quota *laads.QuotaPool
}

// Kernels hosts the worker-side task implementations against shared
// per-process state: one decode arena for tile extraction, a
// model/codebook cache for inference (loaded once per pair, like
// core.Engine's weights cache), a content-addressed download cache, and
// a bounded memo of completed task results so requeued or stolen tasks
// skip redone work.
type Kernels struct {
	arena     *tensor.ShardedArena
	downloads *DownloadCache // nil when CacheDir is unset
	results   *ResultCache
	quota     *laads.QuotaPool // nil admits everything

	mu sync.Mutex
	// models caches loaded labelers keyed "modelPath|codebookPath".
	// guarded by mu
	models map[string]*aicca.Labeler
	// clients caches archive clients keyed "url|token" so every fetch —
	// prefetch or in-slot — shares one connection pool and one quota
	// hook per tenant. guarded by mu
	clients map[string]*laads.Client
	// fetches coalesces concurrent cache-less downloads of one
	// destination path: the prefetcher and a compute slot racing on the
	// same granule must cost one archive fetch, not two concurrent
	// writers. (With the cache enabled its own singleflight covers
	// this.) guarded by mu
	fetches map[string]*fetchCall

	prefetchInflight atomic.Int64
}

// NewKernels builds the worker kernel set with caching and quota off.
func NewKernels() *Kernels {
	k, err := NewKernelsWith(KernelConfig{})
	if err != nil {
		panic(err) // unreachable: only CacheDir setup can fail
	}
	return k
}

// NewKernelsWith builds the worker kernel set.
func NewKernelsWith(cfg KernelConfig) (*Kernels, error) {
	k := &Kernels{
		arena:   tensor.NewShardedArena(),
		results: NewResultCache(cfg.ResultCacheSize),
		quota:   cfg.Quota,
		models:  map[string]*aicca.Labeler{},
		clients: map[string]*laads.Client{},
		fetches: map[string]*fetchCall{},
	}
	if cfg.CacheDir != "" {
		dc, err := NewDownloadCache(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
		k.downloads = dc
	}
	return k, nil
}

// Instrument registers the worker-side cache and prefetch series on
// reg: eoml_fleet_cache_{hits,misses,evictions}_total broken out by
// cache={download,result}, eoml_fleet_cache_coalesced_total for the
// download cache, and the eoml_fleet_prefetch_inflight gauge.
func (k *Kernels) Instrument(reg *metrics.Registry) {
	dl := metrics.L("cache", "download")
	rs := metrics.L("cache", "result")
	pick := func(sel func(h, m, e int64) int64, download bool) func() float64 {
		return func() float64 {
			if download {
				if k.downloads == nil {
					return 0
				}
				return float64(sel(k.downloads.Stats()))
			}
			return float64(sel(k.results.Stats()))
		}
	}
	hitsOf := func(h, _, _ int64) int64 { return h }
	missesOf := func(_, m, _ int64) int64 { return m }
	evictionsOf := func(_, _, e int64) int64 { return e }
	const (
		hitsHelp      = "Cache hits, by cache (download = archive bytes served from disk, result = task results served from memo)."
		missesHelp    = "Cache misses, by cache (download = archive fetches that went to the network, result = tasks computed fresh)."
		evictionsHelp = "Cache evictions, by cache (LRU size bound or integrity failure)."
	)
	reg.CounterFunc("eoml_fleet_cache_hits_total", hitsHelp, pick(hitsOf, true), dl)
	reg.CounterFunc("eoml_fleet_cache_hits_total", hitsHelp, pick(hitsOf, false), rs)
	reg.CounterFunc("eoml_fleet_cache_misses_total", missesHelp, pick(missesOf, true), dl)
	reg.CounterFunc("eoml_fleet_cache_misses_total", missesHelp, pick(missesOf, false), rs)
	reg.CounterFunc("eoml_fleet_cache_evictions_total", evictionsHelp, pick(evictionsOf, true), dl)
	reg.CounterFunc("eoml_fleet_cache_evictions_total", evictionsHelp, pick(evictionsOf, false), rs)
	reg.CounterFunc("eoml_fleet_cache_coalesced_total",
		"Download-cache fetches served by waiting on another caller's in-flight archive fetch (neither hit nor miss).",
		func() float64 {
			if k.downloads == nil {
				return 0
			}
			return float64(k.downloads.Coalesced())
		}, dl)
	reg.GaugeFunc("eoml_fleet_prefetch_inflight",
		"Granule input fetches currently running ahead of their compute slot.",
		func() float64 { return float64(k.prefetchInflight.Load()) })
}

// Register adds both task functions to a compute registry.
func (k *Kernels) Register(reg *compute.Registry) error {
	if err := reg.Register(PreprocessFunction, k.preprocess); err != nil {
		return err
	}
	return reg.Register(LabelFunction, k.label)
}

// clientFor finds or creates the archive client for one url+token pair,
// so prefetch and in-slot fetches share a connection pool and the
// tenant's quota bucket. Tenants are keyed to the archive credential
// (hashed — the secret never becomes a metric label).
func (k *Kernels) clientFor(url, token string) *laads.Client {
	key := url + "|" + token
	k.mu.Lock()
	defer k.mu.Unlock()
	if c, ok := k.clients[key]; ok {
		return c
	}
	c := laads.NewClient(url, token)
	if k.quota != nil {
		tok := sha256.Sum256([]byte(token))
		c.Quota = k.quota.Tenant(hex.EncodeToString(tok[:6]))
	}
	k.clients[key] = c
	return c
}

// fetchGranuleInputs fetches the granule's product files missing from
// dataDir, all three concurrently — against a latency-shaped archive
// the triple costs one round-trip instead of three. Each fetch goes
// through the download cache (when enabled), so re-leases and restarted
// runs hit disk. No archive URL means shared storage; missing files
// surface later as read errors.
func (k *Kernels) fetchGranuleInputs(ctx context.Context, g modis.GranuleID, dataDir, url, token string) error {
	if url == "" {
		return nil
	}
	client := k.clientFor(url, token)
	kinds := []modis.Kind{modis.L1B, modis.Geo, modis.Cloud}
	var (
		wg   sync.WaitGroup
		errs = make([]error, len(kinds))
	)
	for i, kind := range kinds {
		prod := modis.Product{Satellite: g.Satellite, Kind: kind}
		name := modis.FileName(prod, g)
		if _, err := os.Stat(filepath.Join(dataDir, name)); err == nil {
			continue
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, prod modis.Product, name string) {
			defer wg.Done()
			fill := func(ctx context.Context) (string, error) {
				if _, err := client.Download(ctx, prod, g.Year, g.DOY, name, dataDir); err != nil {
					return "", fmt.Errorf("fetch %s: %w", name, err)
				}
				return filepath.Join(dataDir, name), nil
			}
			if k.downloads == nil {
				errs[i] = k.fetchDirect(ctx, filepath.Join(dataDir, name), fill)
				return
			}
			key := CacheKey{ArchiveURL: url, Token: token, Name: name}
			_, _, errs[i] = k.downloads.Fetch(ctx, key, dataDir, fill)
		}(i, prod, name)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fetchDirect runs fill for dest, coalescing concurrent callers: the
// first becomes the leader, the rest wait and succeed when it does. A
// waiter whose leader failed (possibly on the leader's own canceled
// context) loops and retries as leader, so a compute slot never fails
// a fetch just because the prefetcher's attempt died.
func (k *Kernels) fetchDirect(ctx context.Context, dest string, fill func(context.Context) (string, error)) error {
	for {
		if _, err := os.Stat(dest); err == nil {
			return nil
		}
		k.mu.Lock()
		if call, ok := k.fetches[dest]; ok {
			k.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return ctx.Err()
			}
			if call.err == nil {
				return nil
			}
			continue
		}
		call := &fetchCall{done: make(chan struct{})}
		k.fetches[dest] = call
		k.mu.Unlock()
		_, call.err = fill(ctx)
		k.mu.Lock()
		delete(k.fetches, dest)
		k.mu.Unlock()
		close(call.done)
		return call.err
	}
}

// parsePreprocessRef validates the granule reference shared by the
// preprocess kernel and the prefetcher.
func parsePreprocessRef(args map[string]any) (modis.GranuleID, string, string, error) {
	sat, err := parseSatellite(stringFrom(args, "satellite"))
	if err != nil {
		return modis.GranuleID{}, "", "", err
	}
	g := modis.GranuleID{
		Satellite: sat,
		Year:      intFrom(args, "year"),
		DOY:       intFrom(args, "doy"),
		Index:     intFrom(args, "index"),
	}
	if err := g.Validate(); err != nil {
		return modis.GranuleID{}, "", "", err
	}
	dataDir := stringFrom(args, "data_dir")
	tileDir := stringFrom(args, "tile_dir")
	if dataDir == "" || tileDir == "" {
		return modis.GranuleID{}, "", "", fmt.Errorf("fleet: preprocess needs data_dir and tile_dir")
	}
	return g, dataDir, tileDir, nil
}

// prefetchInputs fetches one enqueued preprocess task's inputs ahead of
// its compute slot. Errors are dropped: the kernel repeats the fetch
// (cache-assisted) and reports failures through the normal task path.
func (k *Kernels) prefetchInputs(ctx context.Context, args map[string]any) {
	g, dataDir, _, err := parsePreprocessRef(args)
	if err != nil {
		return
	}
	k.prefetchInflight.Add(1)
	defer k.prefetchInflight.Add(-1)
	_ = k.fetchGranuleInputs(ctx, g, dataDir, stringFrom(args, "archive_url"), stringFrom(args, "archive_token"))
}

// preprocess is the tile-extraction kernel. Inputs absent from DataDir
// are fetched from the archive when credentials are supplied, so a
// worker at another facility only needs the granule reference. The
// output NetCDF is written via an atomic temp+rename with fully
// deterministic content, which is what makes duplicated leases (steal,
// requeue-after-partial) safe — and completed results are memoized on
// the granule ref, so a duplicate lease that already ran here returns
// without recomputing at all.
func (k *Kernels) preprocess(ctx context.Context, args map[string]any) (any, error) {
	g, dataDir, tileDir, err := parsePreprocessRef(args)
	if err != nil {
		return nil, err
	}
	memoKey := fmt.Sprintf("preprocess|%s|%04d%03d.%d|%s|%d|%g",
		stringFrom(args, "satellite"), g.Year, g.DOY, g.Index,
		tileDir, intFrom(args, "tile_pixels"), floatFrom(args, "min_cloud_frac"))
	if v, ok := k.results.Get(memoKey); ok {
		r := v.(PreprocessResult)
		if r.File == "" {
			return r.asMap(), nil // memoized empty granule
		}
		if _, err := os.Stat(r.File); err == nil {
			return r.asMap(), nil
		}
		k.results.Delete(memoKey) // output vanished; recompute
	}

	if err := k.fetchGranuleInputs(ctx, g, dataDir, stringFrom(args, "archive_url"), stringFrom(args, "archive_token")); err != nil {
		return nil, err
	}
	read := func(kind modis.Kind) (*hdf.File, error) {
		prod := modis.Product{Satellite: g.Satellite, Kind: kind}
		return hdf.ReadFile(filepath.Join(dataDir, modis.FileName(prod, g)))
	}
	mod02, err := read(modis.L1B)
	if err != nil {
		return nil, err
	}
	mod03, err := read(modis.Geo)
	if err != nil {
		return nil, err
	}
	mod06, err := read(modis.Cloud)
	if err != nil {
		return nil, err
	}
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{
		TileSize:     intFrom(args, "tile_pixels"),
		MinCloudFrac: floatFrom(args, "min_cloud_frac"),
		Arena:        k.arena,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Tiles) == 0 {
		out := PreprocessResult{}
		k.results.Put(memoKey, out)
		return out.asMap(), nil // night granule or no ocean clouds
	}
	if err := os.MkdirAll(tileDir, 0o755); err != nil {
		return nil, err
	}
	// Same name core's in-process path produces, so local and fleet
	// distribution yield byte-identical layouts on shared storage.
	name := fmt.Sprintf("tiles.%s.A%04d%03d.%s.nc", g.Satellite.Prefix(), g.Year, g.DOY, g.HHMM())
	path := filepath.Join(tileDir, name)
	if err := tile.WriteNetCDF(path, res.Tiles); err != nil {
		return nil, err
	}
	out := PreprocessResult{Tiles: len(res.Tiles), File: path}
	k.results.Put(memoKey, out)
	return out.asMap(), nil
}

func (r PreprocessResult) asMap() map[string]any {
	return map[string]any{"tiles": r.Tiles, "file": r.File}
}

// label is the inference kernel: load (or reuse) the labeler for the
// model/codebook pair and label the tile file in place. AppendLabels
// rewrites via temp+rename, and labels are deterministic for a given
// precision, so duplicated leases are idempotent here too — and, like
// preprocess, memoized: a stolen or requeued task whose file this
// worker already labeled returns the cached count without rerunning
// inference.
func (k *Kernels) label(ctx context.Context, args map[string]any) (any, error) {
	file := stringFrom(args, "file")
	model := stringFrom(args, "model")
	codebook := stringFrom(args, "codebook")
	if file == "" || model == "" || codebook == "" {
		return nil, fmt.Errorf("fleet: label needs file, model and codebook")
	}
	prec, err := aicca.ParsePrecision(stringFrom(args, "precision"))
	if err != nil {
		return nil, err
	}
	memoKey := fmt.Sprintf("label|%s|%s|%s|%v", file, model, codebook, prec)
	if v, ok := k.results.Get(memoKey); ok {
		if _, err := os.Stat(file); err == nil {
			return map[string]any{"labeled": v.(int)}, nil
		}
		k.results.Delete(memoKey) // labeled file vanished; recompute
	}
	l, err := k.labelerFor(model, codebook)
	if err != nil {
		return nil, err
	}
	if l.Precision != prec {
		// Shallow per-task override, same trick as aicca's BatchConfig:
		// the shared model/codebook pointers stay cached.
		ll := *l
		ll.Precision = prec
		l = &ll
	}
	n, err := l.LabelFile(file)
	if err != nil {
		return nil, err
	}
	k.results.Put(memoKey, n)
	return map[string]any{"labeled": n}, nil
}

// labelerFor loads a labeler once per model/codebook pair.
func (k *Kernels) labelerFor(model, codebook string) (*aicca.Labeler, error) {
	key := model + "|" + codebook
	k.mu.Lock()
	defer k.mu.Unlock()
	if l, ok := k.models[key]; ok {
		return l, nil
	}
	m, err := ricc.Load(model)
	if err != nil {
		return nil, fmt.Errorf("fleet: load model: %w", err)
	}
	cb, err := ricc.LoadCodebook(codebook)
	if err != nil {
		return nil, fmt.Errorf("fleet: load codebook: %w", err)
	}
	l, err := aicca.NewLabeler(m, cb)
	if err != nil {
		return nil, err
	}
	k.models[key] = l
	return l, nil
}

func parseSatellite(s string) (modis.Satellite, error) {
	switch s {
	case "Terra":
		return modis.Terra, nil
	case "Aqua":
		return modis.Aqua, nil
	}
	return 0, fmt.Errorf("fleet: unknown satellite %q", s)
}

// intFrom tolerates the JSON hop turning ints into float64s.
func intFrom(m map[string]any, key string) int {
	switch v := m[key].(type) {
	case int:
		return v
	case float64:
		return int(v)
	}
	return 0
}

func floatFrom(m map[string]any, key string) float64 {
	switch v := m[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	return 0
}

func stringFrom(m map[string]any, key string) string {
	s, _ := m[key].(string)
	return s
}
