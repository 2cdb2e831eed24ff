package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/hdf"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/netcdf"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tensor"
	"github.com/eoml/eoml/internal/tile"
)

// GranuleFunction names the one task function every worker serves: a
// whole granule, fetched, tiled, labeled and published under one lease.
// Task arguments ship granule *references* — archive coordinates and
// shared-storage paths — never pixel bytes.
const GranuleFunction = "eoml.granule"

// GranuleArgs is the wire form of one granule task: which granule,
// where its HDF triple lives (DataDir), where the labeled tile NetCDF is
// published (OutboxDir, which the submitting run creates and owns), the
// model/codebook refs the worker loads (and caches) from shared storage,
// and optionally which archive to fetch missing inputs from — the
// multi-facility case where the worker does not share the submitter's
// data directory.
type GranuleArgs struct {
	Satellite    string  `json:"satellite"`
	Year         int     `json:"year"`
	DOY          int     `json:"doy"`
	Index        int     `json:"index"`
	DataDir      string  `json:"data_dir"`
	OutboxDir    string  `json:"outbox_dir"`
	TilePixels   int     `json:"tile_pixels"`
	MinCloudFrac float64 `json:"min_cloud_frac"`
	Model        string  `json:"model"`
	Codebook     string  `json:"codebook"`
	Precision    string  `json:"precision,omitempty"`
	ArchiveURL   string  `json:"archive_url,omitempty"`
	ArchiveToken string  `json:"archive_token,omitempty"`
}

// Args flattens to the task functions' map form. It fails only on a
// value JSON cannot carry (a NaN cloud fraction).
func (a GranuleArgs) Args() (map[string]any, error) {
	var m map[string]any
	if err := rewire(a, &m); err != nil {
		return nil, fmt.Errorf("fleet: granule args: %w", err)
	}
	return m, nil
}

// GranuleResult reports one granule's outcome: how many tiles it
// yielded, the labeled file published for them (empty for a night or
// cloud-free granule), what it fetched from the archive, and where the
// worker's wall time went. Started is the worker's clock when the task
// began; the four phases follow it back to back, so Started plus their
// sum is when the file was published.
type GranuleResult struct {
	Tiles   int    `json:"tiles"`
	File    string `json:"file"`
	Labeled int    `json:"labeled"`

	// FetchedFiles and FetchedBytes count the archive fetches this task
	// made itself. An input already in DataDir, served by the download
	// cache or fetched by a concurrent task this one waited on costs it
	// nothing, and so does a memo hit.
	FetchedFiles int   `json:"fetched_files"`
	FetchedBytes int64 `json:"fetched_bytes"`

	Started time.Time     `json:"started"`
	Fetch   time.Duration `json:"fetch_ns"`   // archive or cache fetch of the HDF triple
	Extract time.Duration `json:"extract_ns"` // wait for a compute slot + HDF decode + tile extraction
	Label   time.Duration `json:"label_ns"`   // encode + codebook assignment
	Write   time.Duration `json:"write_ns"`   // NetCDF encode + temp write + rename
}

// ParseGranuleResult decodes a task result from its wire form.
func ParseGranuleResult(v any) (GranuleResult, error) {
	var r GranuleResult
	if err := rewire(v, &r); err != nil {
		return GranuleResult{}, fmt.Errorf("fleet: granule result: %w", err)
	}
	return r, nil
}

// LabelFileFunction names the task that labels one tile file another
// writer dropped into a run's TileDir and publishes it for shipment.
const LabelFileFunction = "eoml.label_file"

// LabelFileArgs is the wire form of one label-file task: the tile file
// (Src, on storage the worker shares), the outbox it is published into
// under its own base name, and the model/codebook refs the worker loads.
type LabelFileArgs struct {
	Src       string `json:"src"`
	OutboxDir string `json:"outbox_dir"`
	Model     string `json:"model"`
	Codebook  string `json:"codebook"`
	Precision string `json:"precision,omitempty"`
}

// Args flattens to the task functions' map form.
func (a LabelFileArgs) Args() map[string]any {
	var m map[string]any
	_ = rewire(a, &m) // strings always encode
	return m
}

// LabelFileResult reports one label-file task: the file it published,
// how many tiles it labeled, and where the worker's wall time went.
// Started is the worker's clock when the task began; the three phases
// follow it back to back.
type LabelFileResult struct {
	File    string        `json:"file"`
	Labeled int           `json:"labeled"`
	Started time.Time     `json:"started"`
	Read    time.Duration `json:"read_ns"`  // NetCDF read + decode
	Label   time.Duration `json:"label_ns"` // wait for a compute slot + encode + codebook assignment
	Write   time.Duration `json:"write_ns"` // NetCDF encode + temp write + rename
}

// ParseLabelFileResult decodes a label-file result from its wire form.
func ParseLabelFileResult(v any) (LabelFileResult, error) {
	var r LabelFileResult
	if err := rewire(v, &r); err != nil {
		return LabelFileResult{}, fmt.Errorf("fleet: label-file result: %w", err)
	}
	return r, nil
}

// rewire converts between a wire struct and the task functions'
// generic form through JSON — the codec the HTTP hop applies anyway, so
// a value reads the same whether or not it crossed a process boundary.
func rewire(from, to any) error {
	raw, err := json.Marshal(from)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, to)
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
	// token bucket, so fetching ahead of the compute slots never exceeds
	// the facility's request-rate agreement.
	Quota *laads.QuotaPool
}

// Kernels hosts the worker-side granule and label-file kernels against
// shared per-process state: one decode arena for tile extraction, a
// model/codebook cache for inference (loaded once per pair; core.Engine
// embeds one Kernels and uses this as its only weights cache), a
// content-addressed download cache, and
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
	// clients caches archive clients keyed "url|token" so every fetch of
	// one credential shares one connection pool and one quota hook.
	// guarded by mu
	clients map[string]*laads.Client
	// fetches coalesces concurrent cache-less downloads of one
	// destination path: two leases of one granule in this process (a
	// steal, a requeue) must cost one archive fetch, not two writers on
	// the same pid-suffixed temp file. (With the cache enabled its own
	// singleflight covers this.) guarded by mu
	fetches map[string]*fetchCall

	// fetching counts granule tasks in their fetch phase.
	fetching atomic.Int64
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

// Instrument registers the worker-side cache and fetch series on
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
		"Granule tasks currently fetching their archive inputs; a task takes a compute slot only once they are present.",
		func() float64 { return float64(k.fetching.Load()) })
}

// Register adds the granule and label-file task functions to a compute
// registry. gate holds the host's compute slots, one token each: a
// granule task fetches its inputs without one and holds one only from
// "inputs present" to "file published", so a host that runs more tasks
// than it has slots fetches the surplus while the slots compute; a
// label-file task holds one to label and publish. client, when set, makes
// every archive fetch of these tasks — a local run passes its own,
// carrying its tenant's quota and the run's metrics; nil uses one
// shared client per archive credential.
func (k *Kernels) Register(reg *compute.Registry, gate chan struct{}, client *laads.Client) error {
	if err := reg.Register(GranuleFunction, func(ctx context.Context, args map[string]any) (any, error) {
		return k.granule(ctx, args, gate, client)
	}); err != nil {
		return err
	}
	return reg.Register(LabelFileFunction, func(ctx context.Context, args map[string]any) (any, error) {
		return k.labelFile(ctx, args, gate)
	})
}

// acquire takes one of gate's compute slots, or fails when ctx ends
// first.
func acquire(ctx context.Context, gate chan struct{}) error {
	select {
	case gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// phaseClock times a task's back-to-back phases.
type phaseClock struct{ mark time.Time }

// end closes the phase that just ran into d and opens the next one.
func (c *phaseClock) end(d *time.Duration) {
	now := time.Now()
	*d, c.mark = now.Sub(c.mark), now
}

// clientFor finds or creates the archive client for one url+token pair,
// so every fetch of one credential shares a connection pool and the
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
// the triple costs one round-trip instead of three — and returns how
// many files and bytes it fetched from the archive itself. Each fetch
// goes through the download cache (when enabled), so re-leases and
// restarted runs hit disk. A nil client means this kernel set's own for
// the credential. No archive URL means shared storage; missing files
// surface later as read errors.
func (k *Kernels) fetchGranuleInputs(ctx context.Context, client *laads.Client, g modis.GranuleID, dataDir, url, token string) (int, int64, error) {
	if url == "" {
		return 0, 0, nil
	}
	if client == nil {
		client = k.clientFor(url, token)
	}
	kinds := []modis.Kind{modis.L1B, modis.Geo, modis.Cloud}
	var (
		wg   sync.WaitGroup
		errs = make([]error, len(kinds))
		// fetched holds the archive downloads this call made; fill runs
		// on its product's goroutine or not at all.
		fetched = make([]laads.FileResult, len(kinds))
	)
	for i, kind := range kinds {
		prod := modis.Product{Satellite: g.Satellite, Kind: kind}
		name := modis.FileName(prod, g)
		if _, err := os.Stat(filepath.Join(dataDir, name)); err == nil {
			continue
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return 0, 0, err
		}
		wg.Add(1)
		go func(i int, prod modis.Product, name string) {
			defer wg.Done()
			fill := func(ctx context.Context) (string, error) {
				res, err := client.Download(ctx, prod, g.Year, g.DOY, name, dataDir)
				if err != nil {
					return "", fmt.Errorf("fetch %s: %w", name, err)
				}
				fetched[i] = res
				return res.Path, nil
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
	files, bytes := 0, int64(0)
	for _, res := range fetched {
		if res.Path != "" {
			files++
			bytes += res.Bytes
		}
	}
	return files, bytes, errors.Join(errs...)
}

// fetchDirect runs fill for dest, coalescing concurrent callers: the
// first becomes the leader, the rest wait and succeed when it does. A
// waiter whose leader failed (possibly on the leader's own canceled
// context) loops and retries as leader, so a lease never fails a fetch
// just because a duplicate lease's attempt died.
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

// parseGranuleRef decodes and validates a granule task's reference.
func parseGranuleRef(args map[string]any) (GranuleArgs, modis.GranuleID, error) {
	var a GranuleArgs
	if err := rewire(args, &a); err != nil {
		return a, modis.GranuleID{}, fmt.Errorf("fleet: granule task: %w", err)
	}
	sat, err := parseSatellite(a.Satellite)
	if err != nil {
		return a, modis.GranuleID{}, err
	}
	g := modis.GranuleID{Satellite: sat, Year: a.Year, DOY: a.DOY, Index: a.Index}
	if err := g.Validate(); err != nil {
		return a, g, err
	}
	if a.DataDir == "" {
		return a, g, fmt.Errorf("fleet: granule task needs data_dir")
	}
	return a, g, nil
}

// granule is the fused kernel: fetch the granule's triple (inputs
// absent from DataDir come from the archive when credentials are
// supplied, so a worker at another facility only needs the reference),
// decode, extract tiles, label them in memory with the cached labeler,
// and write the labeled NetCDF once, straight into OutboxDir. The run
// that submitted the task owns OutboxDir; the kernel never creates it,
// so a duplicate outliving the run fails instead of resurrecting it.
//
// Duplicated leases (steal, requeue-after-partial) stay safe because
// the file's content is a pure function of the task arguments and
// netcdf.WriteFile publishes by unique-temp + rename: every writer
// renames a complete, byte-identical file over the same name. Completed
// results are memoized on every argument that shapes the output, so a
// duplicate lease that already ran here returns without recomputing.
//
// Fetching needs no compute slot: the kernel takes one of gate's tokens
// once its inputs are present and holds it until the file is published.
// The wait for it counts toward the extract phase.
func (k *Kernels) granule(ctx context.Context, args map[string]any, gate chan struct{}, client *laads.Client) (any, error) {
	out := GranuleResult{Started: time.Now()}
	a, g, err := parseGranuleRef(args)
	if err != nil {
		return nil, err
	}
	if a.OutboxDir == "" {
		return nil, fmt.Errorf("fleet: granule task needs outbox_dir")
	}
	l, err := k.labelerFor(a.Model, a.Codebook, a.Precision)
	if err != nil {
		return nil, err
	}
	memoKey := fmt.Sprintf("granule|%s|%04d%03d.%d|%s|%d|%g|%s|%s|%v", a.Satellite, g.Year, g.DOY, g.Index,
		a.OutboxDir, a.TilePixels, a.MinCloudFrac, a.Model, a.Codebook, l.Precision)
	if v, ok := k.results.Get(memoKey); ok {
		r := v.(GranuleResult)
		if _, err := os.Stat(r.File); r.File == "" || err == nil {
			// An empty granule has no file to check. The first run
			// reported its own fetches; this lease made none.
			r.FetchedFiles, r.FetchedBytes = 0, 0
			return r, nil
		}
		k.results.Delete(memoKey) // output vanished; recompute
	}
	clock := phaseClock{mark: out.Started}
	k.fetching.Add(1)
	out.FetchedFiles, out.FetchedBytes, err = k.fetchGranuleInputs(ctx, client, g, a.DataDir, a.ArchiveURL, a.ArchiveToken)
	k.fetching.Add(-1)
	if err != nil {
		return nil, err
	}
	clock.end(&out.Fetch)
	if err := acquire(ctx, gate); err != nil {
		return nil, err
	}
	defer func() { <-gate }()
	var files [3]*hdf.File
	for i, kind := range []modis.Kind{modis.L1B, modis.Geo, modis.Cloud} {
		prod := modis.Product{Satellite: g.Satellite, Kind: kind}
		if files[i], err = hdf.ReadFile(filepath.Join(a.DataDir, modis.FileName(prod, g))); err != nil {
			return nil, err
		}
	}
	res, err := tile.Extract(files[0], files[1], files[2], tile.Options{
		TileSize:     a.TilePixels,
		MinCloudFrac: a.MinCloudFrac,
		Arena:        k.arena,
	})
	if err != nil {
		return nil, err
	}
	clock.end(&out.Extract)
	if len(res.Tiles) == 0 {
		k.results.Put(memoKey, out)
		return out, nil // night granule or no ocean clouds
	}
	if _, err := l.LabelTiles(res.Tiles); err != nil {
		return nil, err
	}
	clock.end(&out.Label)
	// A lease canceled while it computed (task timeout, forced stop) must
	// not publish: nobody is waiting for this copy's file.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.File = filepath.Join(a.OutboxDir, tile.FileName(g))
	if err := tile.WriteNetCDF(out.File, res.Tiles); err != nil {
		return nil, err
	}
	clock.end(&out.Write)
	out.Tiles, out.Labeled = len(res.Tiles), len(res.Tiles)
	k.results.Put(memoKey, out)
	return out, nil
}

// parseLabelFileRef decodes and validates a label-file task and returns
// the path it publishes: OutboxDir joined with the source's base name,
// which must name a NetCDF file, so no src writes outside OutboxDir.
func parseLabelFileRef(args map[string]any) (LabelFileArgs, string, error) {
	var a LabelFileArgs
	if err := rewire(args, &a); err != nil {
		return a, "", fmt.Errorf("fleet: label-file task: %w", err)
	}
	if a.Src == "" || a.OutboxDir == "" {
		return a, "", fmt.Errorf("fleet: label-file task needs src and outbox_dir")
	}
	name := filepath.Base(a.Src)
	if !strings.HasSuffix(name, ".nc") {
		return a, "", fmt.Errorf("fleet: label-file source %q is not a .nc file", a.Src)
	}
	return a, filepath.Join(a.OutboxDir, name), nil
}

// labelFile labels a tile file another writer dropped into a run's
// TileDir: what tile.AppendLabels does — read the NetCDF, set its label
// variable, write — except that the labeled file is published into
// OutboxDir by unique-temp + rename and the source is never rewritten
// or removed. Labeling and publishing hold one of gate's compute slots.
//
// The run removes the source once a lease succeeds, so a duplicate
// lease (steal, requeue) that runs after that finds it gone and the
// output published, and succeeds without writing anything; its result
// is never the first, so its zero tile count is never booked.
func (k *Kernels) labelFile(ctx context.Context, args map[string]any, gate chan struct{}) (any, error) {
	out := LabelFileResult{Started: time.Now()}
	a, dst, err := parseLabelFileRef(args)
	if err != nil {
		return nil, err
	}
	l, err := k.labelerFor(a.Model, a.Codebook, a.Precision)
	if err != nil {
		return nil, err
	}
	out.File = dst
	f, err := netcdf.ReadFile(a.Src)
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(dst); serr == nil {
			return out, nil
		}
	}
	if err != nil {
		return nil, err
	}
	tiles, err := tile.FromNetCDF(f)
	if err != nil {
		return nil, err
	}
	clock := phaseClock{mark: out.Started}
	clock.end(&out.Read)
	if err := acquire(ctx, gate); err != nil {
		return nil, err
	}
	defer func() { <-gate }()
	labels, err := l.LabelTiles(tiles)
	if err != nil {
		return nil, err
	}
	v, err := f.Var("label")
	if err == nil {
		err = v.SetShorts(labels)
	}
	if err != nil {
		return nil, err
	}
	clock.end(&out.Label)
	// As in granule: a lease canceled while it computed must not publish.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := netcdf.WriteFile(dst, f); err != nil {
		return nil, err
	}
	clock.end(&out.Write)
	out.Labeled = len(labels)
	return out, nil
}

// Labeler returns the labeler for a model/codebook pair, loaded once and
// then shared by every task (and every run of an embedding engine) that
// names the pair. A pair with either half missing resolves to the
// labeler UseLabeler seeded, and fails without one.
func (k *Kernels) Labeler(model, codebook string) (*aicca.Labeler, error) {
	if model == "" || codebook == "" {
		model, codebook = "", ""
	}
	key := model + "|" + codebook
	k.mu.Lock()
	defer k.mu.Unlock()
	if l, ok := k.models[key]; ok {
		return l, nil
	}
	if key == "|" {
		return nil, fmt.Errorf("fleet: no model and codebook named, and no labeler supplied")
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

// labelerFor is Labeler with the task's encode precision applied: a
// shallow per-task copy when it differs, so the shared model and
// codebook pointers stay cached.
func (k *Kernels) labelerFor(model, codebook, precision string) (*aicca.Labeler, error) {
	l, err := k.Labeler(model, codebook)
	if err != nil {
		return nil, err
	}
	prec, err := aicca.ParsePrecision(precision)
	if err != nil {
		return nil, err
	}
	if l.Precision != prec {
		ll := *l
		ll.Precision = prec
		l = &ll
	}
	return l, nil
}

// UseLabeler serves l to tasks that name no model artifacts. Only a
// process that embeds the kernels calls it (core's engine, with its
// programmatic labeler); a worker built by NewWorker never does, so its
// tasks must carry model refs.
func (k *Kernels) UseLabeler(l *aicca.Labeler) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.models["|"] = l
}

// Arena returns the decode scratch arena tile extraction recycles, so an
// embedding process can instrument it.
func (k *Kernels) Arena() *tensor.ShardedArena { return k.arena }

func parseSatellite(s string) (modis.Satellite, error) {
	switch s {
	case "Terra":
		return modis.Terra, nil
	case "Aqua":
		return modis.Aqua, nil
	}
	return 0, fmt.Errorf("fleet: unknown satellite %q", s)
}
