package core

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/flows"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/trace"
	"github.com/eoml/eoml/internal/transfer"
	"github.com/eoml/eoml/internal/watch"
)

// labelFlow is the Globus-Flows-style definition of stages 3–4 for a
// tile file another writer drops into TileDir: one action that leases
// the file's label-file task to the fleet, which labels it and publishes
// it into the outbox.
const labelFlow = `{
  "Comment": "EO-ML inference flow: label a tile file and stage it for shipment",
  "StartAt": "Infer",
  "States": {
    "Infer": {
      "Type": "Action",
      "ActionProvider": "inference",
      "Parameters": {"file": "$.file"},
      "End": true
    }
  }
}`

// RunStream executes the workflow in streaming mode — the paper's §V
// extension to "batch as well as streaming data". Granule indices arrive
// on a channel (as they would from a satellite downlink feed); each
// arrival is handed to the granule driver at once, and the task that
// leases it fetches, tiles, labels and publishes it. Meanwhile the
// monitor turns every tile file another writer drops into TileDir into
// one label-file task on the same fleet. Shipment happens once the
// stream closes and both kinds of task are done. Run is this driver
// over a closed channel of the configured granules.
func (p *Run) RunStream(ctx context.Context, arrivals <-chan int) (*Report, error) {
	rep := &Report{Timeline: trace.NewTimeline(), Spans: trace.NewSpans()}
	rc := &runContext{
		Epoch:    time.Now(),
		Timeline: rep.Timeline,
		Spans:    rep.Spans,
		Metrics:  p.metrics,
		Health:   p.health,
	}
	err := p.stream(ctx, rc, arrivals, rep)
	rep.Elapsed = time.Since(rc.Epoch)
	rep.Metrics = p.metrics.Snapshot()
	if err != nil {
		// Partial report: telemetry and counts up to the failure point.
		return rep, fmt.Errorf("core: %w", err)
	}
	return rep, nil
}

// stream is the run itself, in the order the paper's stages go: arm the
// crawler, ingest the granules and wait for their tasks, stop the
// crawler and wait for the label-file tasks it triggered, ship.
func (p *Run) stream(ctx context.Context, rc *runContext, arrivals <-chan int, rep *Report) error {
	for _, dir := range []string{p.cfg.DataDir, p.cfg.TileDir, p.cfg.OutboxDir, p.cfg.DestDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	// Register every stage's series and health entry up front, so the
	// full catalogue is on /metrics before any work happens. Fetching
	// happens inside each granule task and monitoring beside the other
	// stages, so download and monitor have series but no span.
	for _, name := range []string{"download", "preprocess", "monitor", "inference", "shipment"} {
		rc.watch(name, 0)
	}
	for _, name := range []string{"preprocess", "inference", "shipment"} {
		rc.failures(name)
		rc.seconds(name)
	}
	rc.Health.Watch("inference", p.cfg.StallTimeout)

	coord, release := p.coordinator()
	defer release()
	d := p.driver(rc, coord)
	stopMonitor, err := p.monitor(ctx, rc, d)
	if err != nil {
		return err
	}
	err = rc.stage("preprocess", func() error {
		err := p.ingest(ctx, arrivals, rep, d)
		// An early return must not leave collections running past the stage.
		if werr := d.wait(rep); err == nil {
			err = werr
		}
		return err
	})
	if err != nil {
		// Flows the crawler already started finish; none start.
		stopMonitor(false)
		_ = d.waitFlows(rep) // the ingest error is the run's
		return err
	}
	rc.Health.Done("download")
	if err := rc.stage("inference", func() error {
		stopMonitor(true)
		return d.waitFlows(rep)
	}); err != nil {
		return err
	}
	return rc.stage("shipment", func() error {
		n, err := p.ship(ctx, rc)
		rep.FilesShipped = n
		return err
	})
}

// monitor arms the paper's stage 3 over TileDir: a crawler that starts
// one flow per new tile file, whose Infer action leases the file's
// label-file task through the driver. A run's own granules never pass
// through it. It returns the function that stops the crawler; with
// rescan, one last scan follows, so every file in TileDir by then is
// this run's to label.
func (p *Run) monitor(ctx context.Context, rc *runContext, d *granuleDriver) (func(rescan bool), error) {
	def, err := flows.ParseDefinition([]byte(labelFlow))
	if err != nil {
		return nil, err
	}
	engine := flows.NewEngine(flows.EngineConfig{})
	if err := engine.RegisterProvider("inference", func(ctx context.Context, params map[string]any) (any, error) {
		path, _ := params["file"].(string)
		return nil, d.labelFile(ctx, path)
	}); err != nil {
		return nil, err
	}
	crawler, err := watch.NewCrawler(watch.Config{
		Dir:      p.cfg.TileDir,
		Pattern:  "*.nc",
		Interval: p.cfg.PollInterval,
		// Tile writers publish by temp+rename, so a file triggers on the
		// first scan that sees it.
		RenamePublished: true,
	})
	if err != nil {
		return nil, err
	}
	trigger := func(evs []watch.Event) error {
		for _, ev := range evs {
			rc.Event("monitor", eventIn)
			d.flow(ev.Path, func() error {
				run, err := engine.Start(ctx, def, map[string]any{"file": ev.Path})
				if err == nil {
					_, err = run.Wait(ctx)
				}
				return err
			})
			rc.EventCounter("monitor", eventOut).Inc()
		}
		return nil
	}
	crawlCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = crawler.Run(crawlCtx, trigger)
	}()
	return func(rescan bool) {
		cancel()
		wg.Wait()
		if !rescan {
			return
		}
		if evs, err := crawler.ScanOnce(); err == nil {
			_ = trigger(evs)
		}
	}, nil
}

// ingest submits each arriving granule until the feed closes.
func (p *Run) ingest(ctx context.Context, arrivals <-chan int, rep *Report, d *granuleDriver) error {
	for {
		var idx int
		var open bool
		select {
		case idx, open = <-arrivals:
		case <-ctx.Done():
			return ctx.Err()
		}
		if !open {
			return nil
		}
		if idx < 0 || idx >= modis.GranulesPerDay {
			return fmt.Errorf("granule index %d out of range", idx)
		}
		rep.GranulesRequested++
		d.submit(ctx, modis.GranuleID{Satellite: p.cfg.Satellite, Year: p.cfg.Year, DOY: p.cfg.DOY, Index: idx})
	}
}

// ship is the workflow's stage 5: a checksum-verified
// Globus-Transfer-style move of the outbox to the destination facility,
// whenever the outbox holds files. It returns how many files it shipped.
func (p *Run) ship(ctx context.Context, rc *runContext) (int, error) {
	names, err := listFiles(p.cfg.OutboxDir)
	if err != nil || len(names) == 0 {
		return 0, err
	}
	started := time.Now()
	svc := transfer.NewService(transfer.Options{VerifyChecksum: true, Parallelism: 4})
	if _, err := svc.RegisterEndpoint("defiant", "ACE Defiant", p.cfg.OutboxDir); err != nil {
		return 0, err
	}
	if _, err := svc.RegisterEndpoint("orion", "Frontier Orion", p.cfg.DestDir); err != nil {
		return 0, err
	}
	taskID, err := svc.SubmitDir("defiant", "orion", ".", ".")
	if err != nil {
		return 0, err
	}
	st, err := svc.Wait(ctx, taskID)
	if err != nil {
		return 0, err
	}
	if st.State != transfer.Succeeded {
		return 0, fmt.Errorf("shipment failed: %v", st.Errors)
	}
	rc.EventCounter("shipment", eventIn).Add(int64(st.FilesDone))
	rc.EventCounter("shipment", eventOut).Add(int64(st.FilesDone))
	rc.Health.Beat("shipment")
	p.recordShipment(names, started, time.Now())
	return st.FilesDone, nil
}

// listFiles returns the plain-file names directly under dir.
func listFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}
