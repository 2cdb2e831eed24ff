package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tile"
)

// Fixed shape of the shared inputs. The program under test sees only
// what these produce (granule indices, an archive URL, model files) and
// never the seed or a workload name.
const (
	archiveScaleDown = 8  // ≈4.4 MB of MOD02/03/06 per granule
	tilePixels       = 16 // 128 / archiveScaleDown
	minTilesPerGran  = 8  // a granule with fewer tiles is not "productive"
	campaignGranules = 24 // granules per campaign and per stream
	trainGranules    = 4
	codebookClasses  = 8
	poolSize         = 2 // workers, slots and connections per pool, whatever the host has
	year             = 2022

	shapedPerConnBytesPerSec = 16 << 20
	shapedRequestOverhead    = 40 * time.Millisecond
)

// granuleRef is one input granule with the labels a correct run must
// ship for it.
type granuleRef struct {
	ID       modis.GranuleID
	TileFile string  // name of the labeled product in OutboxDir and DestDir
	Labels   []int16 // reference labeling, in tile order
	Bytes    int64   // size of the MOD02/03/06 triple
}

// archive is one laads.Server on a loopback listener.
type archive struct {
	srv  *laads.Server
	http *httptest.Server
}

func (a *archive) URL() string { return a.http.URL }

func newArchive(cfg laads.ServerConfig) (*archive, error) {
	cfg.ScaleDown = archiveScaleDown
	cfg.CacheGranules = 256 // the whole working set, so synthesis happens once
	srv, err := laads.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return &archive{srv: srv, http: httptest.NewServer(srv)}, nil
}

// inputs is everything set-up builds and every workload shares.
type inputs struct {
	root     string // set-up's own directory under the run's temp root
	doy      int
	granules []granuleRef
	labeler  *aicca.Labeler
	model    string
	codebook string
	plain    *archive // no shaping
	shaped   *archive // per-connection bandwidth cap plus request overhead
	// dataDir holds the granule files fetched from the plain archive
	// (empty when set-up was asked not to fetch them).
	dataDir string
}

func (in *inputs) close() {
	in.plain.http.Close()
	in.shaped.http.Close()
}

func (in *inputs) indices() []int {
	out := make([]int, len(in.granules))
	for i, g := range in.granules {
		out[i] = g.ID.Index
	}
	return out
}

// tiles is the reference tile count of one campaign.
func (in *inputs) tiles() int {
	n := 0
	for _, g := range in.granules {
		n += len(g.Labels)
	}
	return n
}

func products() []modis.Product {
	return []modis.Product{modis.MOD021KM, modis.MOD03, modis.MOD06L2}
}

func tileFileName(g modis.GranuleID) string {
	return fmt.Sprintf("tiles.%s.A%04d%03d.%s.nc", g.Satellite.Prefix(), g.Year, g.DOY, g.HHMM())
}

// scanned is the outcome of synthesizing and tiling one candidate slot.
type scanned struct {
	id    modis.GranuleID
	tiles []*tile.Tile
	err   error
}

// scanSlot applies eoml.FindDayGranules' rule to one slot: day side and
// at least minTilesPerGran ocean-cloud tiles.
func scanSlot(gen *modis.Generator, id modis.GranuleID) scanned {
	out := scanned{id: id}
	mod03, err := gen.Generate(modis.MOD03, id)
	if err != nil {
		out.err = err
		return out
	}
	if flag, _ := mod03.AttrString("DayNightFlag"); flag != "Day" {
		return out
	}
	mod02, err := gen.Generate(modis.MOD021KM, id)
	if err != nil {
		out.err = err
		return out
	}
	mod06, err := gen.Generate(modis.MOD06L2, id)
	if err != nil {
		out.err = err
		return out
	}
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: tilePixels, MinCloudFrac: core.DefaultConfig().MinCloudFrac})
	if err != nil {
		out.err = err
		return out
	}
	if len(res.Tiles) >= minTilesPerGran {
		out.tiles = res.Tiles
	}
	return out
}

// findGranules walks the day's slots in the seeded order, poolSize at a
// time, until want productive granules are found.
func findGranules(doy int, order []int, want int) ([]scanned, error) {
	gen, err := modis.NewGenerator(archiveScaleDown)
	if err != nil {
		return nil, err
	}
	var found []scanned
	for at := 0; at < len(order) && len(found) < want; at += poolSize {
		end := at + poolSize
		if end > len(order) {
			end = len(order)
		}
		batch := make([]scanned, end-at)
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				batch[i] = scanSlot(gen, modis.GranuleID{Satellite: modis.Terra, Year: year, DOY: doy, Index: order[at+i]})
			}(i)
		}
		wg.Wait()
		for _, s := range batch {
			if s.err != nil {
				return nil, fmt.Errorf("scan granule %d: %w", s.id.Index, s.err)
			}
			if s.tiles != nil && len(found) < want {
				found = append(found, s)
			}
		}
	}
	if len(found) < want {
		return nil, fmt.Errorf("day %d has only %d productive granules, want %d", doy, len(found), want)
	}
	return found, nil
}

// buildInputs is the shared set-up: pick the day and granules from the
// seed, train and save one labeler, compute the reference labels, start
// both archives, and (when fetchPlain) pull every granule file through
// the plain archive once so its synthesis never lands in a timed region.
// The shaped archive is warmed by the fleet workloads' un-timed warm-up
// campaigns instead: paying its bandwidth cap here would only slow
// set-up down.
func buildInputs(ctx context.Context, seed int64, root string, fetchPlain bool) (*inputs, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	doy := 1 + rng.Intn(365)
	order := rng.Perm(modis.GranulesPerDay)

	found, err := findGranules(doy, order, campaignGranules)
	if err != nil {
		return nil, err
	}

	var trainTiles []*tile.Tile
	for _, s := range found[:trainGranules] {
		trainTiles = append(trainTiles, s.tiles...)
	}
	rcfg := ricc.DefaultConfig()
	rcfg.TileSize = tilePixels
	rcfg.Epochs = 1
	trained, _, err := aicca.Train(trainTiles, rcfg, codebookClasses)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	in := &inputs{
		root:     root,
		doy:      doy,
		model:    filepath.Join(root, "ricc.hdf"),
		codebook: filepath.Join(root, "codebook.hdf"),
	}
	if err := trained.Model.Save(in.model); err != nil {
		return nil, err
	}
	if err := trained.Codebook.Save(in.codebook); err != nil {
		return nil, err
	}
	// Every consumer — reference, local pipeline, fleet workers — uses
	// the labeler as loaded from disk, so all of them share one set of
	// weights bit for bit.
	model, err := ricc.Load(in.model)
	if err != nil {
		return nil, err
	}
	cb, err := ricc.LoadCodebook(in.codebook)
	if err != nil {
		return nil, err
	}
	if in.labeler, err = aicca.NewLabeler(model, cb); err != nil {
		return nil, err
	}

	for _, s := range found {
		labels, err := in.labeler.LabelTiles(s.tiles)
		if err != nil {
			return nil, fmt.Errorf("reference labels for granule %d: %w", s.id.Index, err)
		}
		in.granules = append(in.granules, granuleRef{ID: s.id, TileFile: tileFileName(s.id), Labels: labels})
	}

	if in.plain, err = newArchive(laads.ServerConfig{}); err != nil {
		return nil, err
	}
	in.shaped, err = newArchive(laads.ServerConfig{
		PerConnBytesPerSec: shapedPerConnBytesPerSec,
		RequestOverhead:    shapedRequestOverhead,
	})
	if err != nil {
		in.plain.http.Close()
		return nil, err
	}
	if fetchPlain {
		in.dataDir = filepath.Join(root, "data")
		client := laads.NewClient(in.plain.URL(), "")
		rep, err := client.DownloadAll(ctx, laads.DayTasks(products(), year, doy, in.indices()), in.dataDir, poolSize)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("fetch inputs: %w", err)
		}
		sizes := map[string]int64{}
		for _, f := range rep.Files {
			sizes[f.Name] = f.Bytes
		}
		for i := range in.granules {
			for _, p := range products() {
				in.granules[i].Bytes += sizes[modis.FileName(p, in.granules[i].ID)]
			}
		}
	}
	return in, nil
}
