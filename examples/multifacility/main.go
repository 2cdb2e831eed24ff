// Multi-facility scenario: the paper's production story at container
// scale. A "NASA LAADS DAAC" archive (HTTP server with token auth and
// bandwidth shaping) feeds an "ACE Defiant" working area; labeled NetCDF
// products are shipped to a separate "Frontier Orion" filesystem with
// checksum verification. The run prints the per-stage latency breakdown
// (the real-mode counterpart of Fig. 7) and the worker-activity timeline
// (Fig. 6), then summarizes what landed on the destination facility.
//
//	go run ./examples/multifacility
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/eoml/eoml"
)

func main() {
	const scale = 32

	// Facility 1: the data archive, bandwidth-shaped like a WAN link.
	archive, err := eoml.NewArchiveServer(eoml.ArchiveOptions{
		ScaleDown:            scale,
		Token:                "olcf-ace",
		PerConnBytesPerSec:   8 << 20,
		AggregateBytesPerSec: 24 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(archive)
	defer server.Close()

	// Facility 2: the compute site's scratch tree.
	defiant, err := os.MkdirTemp("", "eoml-defiant-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(defiant)
	// Facility 3: the analysis site's filesystem.
	orion, err := os.MkdirTemp("", "eoml-orion-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(orion)

	cfg := eoml.DefaultConfig()
	cfg.ArchiveURL = server.URL
	cfg.ArchiveToken = "olcf-ace"
	cfg.TilePixels = 4
	cfg.DownloadWorkers = 3
	cfg.PreprocessWorkers = 8
	cfg.PollInterval = 20 * time.Millisecond
	cfg.DataDir = filepath.Join(defiant, "modis")
	cfg.TileDir = filepath.Join(defiant, "tiles")
	cfg.OutboxDir = filepath.Join(defiant, "outbox")
	cfg.DestDir = filepath.Join(orion, "aicca")

	granules, err := eoml.FindDayGranules(cfg, scale, 6, 4)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Granules = granules
	fmt.Printf("multifacility: processing %d granules of 2022-001 across three facilities\n", len(granules))

	ctx := context.Background()
	labeler, err := eoml.TrainFromArchive(ctx, cfg, eoml.TrainOptions{
		Granules: granules[:2], // train on a subset, infer on the full set
		Classes:  8,
		Epochs:   3,
		Seed:     2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Persist the model artifacts, as a facility-resident service would.
	modelDir := filepath.Join(defiant, "models")
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		log.Fatal(err)
	}
	cfg.ModelPath = filepath.Join(modelDir, "ricc.hdf")
	cfg.CodebookPath = filepath.Join(modelDir, "aicca-codebook.hdf")
	if err := eoml.SaveLabeler(labeler, cfg.ModelPath, cfg.CodebookPath); err != nil {
		log.Fatal(err)
	}

	// The pipeline loads the artifacts from disk (labeler == nil).
	pipe, err := eoml.NewPipeline(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := pipe.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrun report: ", rep.Summary())
	fmt.Println("\nstage latency breakdown (cf. paper Fig. 7):")
	fmt.Print(rep.Spans.Render())
	fmt.Println("\nworker activity timeline (cf. paper Fig. 6):")
	fmt.Print(rep.Timeline.Render(rep.Elapsed.Seconds(), 72))

	shipped, err := filepath.Glob(filepath.Join(cfg.DestDir, "*.nc"))
	if err != nil {
		log.Fatal(err)
	}
	totalTiles := 0
	for _, path := range shipped {
		tiles, err := eoml.ReadTiles(path)
		if err != nil {
			log.Fatal(err)
		}
		totalTiles += len(tiles)
	}
	fmt.Printf("\nlanded on Orion: %d labeled NetCDF files, %d tiles, ready for downstream climate analysis\n",
		len(shipped), totalTiles)
}
