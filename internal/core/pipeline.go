package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/provenance"
	"github.com/eoml/eoml/internal/stage"
	"github.com/eoml/eoml/internal/trace"
)

// Report summarizes a completed pipeline run.
type Report struct {
	GranulesRequested int
	FilesDownloaded   int
	BytesDownloaded   int64
	TileFiles         int // granules that yielded ocean-cloud tiles
	TilesProduced     int
	TilesLabeled      int
	FilesShipped      int
	FlowsFailed       int // label-and-move flows that errored
	Elapsed           time.Duration

	// Stage telemetry (Fig. 6 / Fig. 7 counterparts for real runs).
	Timeline *trace.Timeline
	Spans    *trace.Spans

	// Metrics is the final registry snapshot, so batch runs keep parity
	// with a live /metrics scrape of a streaming run.
	Metrics []metrics.Family
}

// Run is one isolated execution of the five-stage workflow, built by
// Engine.NewRun. Batch execution (Run) is streaming execution
// (RunStream) over a closed feed of the configured granules: one driver
// over the stage objects from internal/stage and the granule driver in
// core/fleet.go. Every Run owns its own metric registry, health
// tracker, and stage state; the kernels and archive quota it uses are
// the engine's shared ones.
type Run struct {
	cfg    Config
	id     string
	tenant string
	// labeler labels tile files other writers drop into TileDir.
	labeler *aicca.Labeler
	prov    *provenance.Store
	// kernels is the engine's granule kernel set, which an in-process
	// fleet of one runs the run's granules on.
	kernels *fleet.Kernels
	// fleet is the engine's worker fleet for a `fleet` run; nil otherwise.
	fleet   *fleet.Coordinator
	quota   *laads.Quota
	metrics *metrics.Registry
	health  *metrics.Health
}

// Pipeline is the legacy one-shot facade: a single-run Engine. It
// exists so code written against the original one-Pipeline-per-process
// API keeps compiling and behaving byte-identically; everything it does
// is a thin delegation to a Run built the same way the control plane
// builds them — one code path.
type Pipeline struct {
	run *Run
}

// New builds a one-shot pipeline. The labeler may be nil only if the
// config names model and codebook files to load.
func New(cfg Config, labeler *aicca.Labeler) (*Pipeline, error) {
	run, err := NewEngine(EngineOptions{Labeler: labeler}).NewRun(cfg, RunOptions{})
	if err != nil {
		return nil, err
	}
	return &Pipeline{run: run}, nil
}

// Run executes the batch workflow; see Run.Run.
func (p *Pipeline) Run(ctx context.Context) (*Report, error) { return p.run.Run(ctx) }

// RunStream executes the streaming workflow; see Run.RunStream.
func (p *Pipeline) RunStream(ctx context.Context, arrivals <-chan int) (*Report, error) {
	return p.run.RunStream(ctx, arrivals)
}

// SetProvenance attaches a provenance store to the underlying run.
func (p *Pipeline) SetProvenance(store *provenance.Store) { p.run.SetProvenance(store) }

// Metrics returns the underlying run's live metric registry.
func (p *Pipeline) Metrics() *metrics.Registry { return p.run.Metrics() }

// Health returns the underlying run's per-stage liveness tracker.
func (p *Pipeline) Health() *metrics.Health { return p.run.Health() }

// ID returns the control-plane identity of the run (empty for the
// legacy one-shot path).
func (p *Run) ID() string { return p.id }

// Tenant returns the tenant the run is attributed to (may be empty).
func (p *Run) Tenant() string { return p.tenant }

// Config returns the run's validated configuration.
func (p *Run) Config() Config { return p.cfg }

// Metrics returns the run's live metric registry. It implements
// http.Handler (Prometheus text exposition; JSON on request), so
// drivers can mount it directly on /metrics. When the run was built
// with a control-plane ID, every series carries run/tenant labels.
func (p *Run) Metrics() *metrics.Registry { return p.metrics }

// Health returns the run's per-stage liveness tracker. It implements
// http.Handler (200/503 with per-stage JSON), so drivers can mount it
// directly on /healthz.
func (p *Run) Health() *metrics.Health { return p.health }

// newReport builds the report and the shared run context the driver
// hands to the stage orchestrator.
func (p *Run) newReport() (*Report, *stage.RunContext) {
	rep := &Report{
		Timeline: trace.NewTimeline(),
		Spans:    trace.NewSpans(),
	}
	rc := &stage.RunContext{
		Epoch:    time.Now(),
		Timeline: rep.Timeline,
		Spans:    rep.Spans,
		Metrics:  p.metrics,
		Health:   p.health,
		Dirs:     []string{p.cfg.DataDir, p.cfg.TileDir, p.cfg.OutboxDir, p.cfg.DestDir},
	}
	return rep, rc
}

// inferenceService builds the shared monitor+inference stage: crawler,
// flow engine, cross-file batcher, and bounded worker pool, armed at
// setup. The run's own granules never reach it as tile files: the fleet
// task publishes each labeled file itself and the driver reports it
// through Published. The monitor stays armed over TileDir for tile files
// other writers drop there — the paper's stage 3 exists for them.
func (p *Run) inferenceService() *stage.InferenceService {
	return stage.NewInferenceService(stage.InferenceConfig{
		Labeler:      p.labeler,
		BatchTiles:   p.cfg.BatchTiles,
		Precision:    aicca.Precision(p.cfg.Precision),
		WatchDir:     p.cfg.TileDir,
		PollInterval: p.cfg.PollInterval,
		Workers:      p.cfg.InferenceWorkers,
		OutboxDir:    p.cfg.OutboxDir,
		StallTimeout: p.cfg.StallTimeout,
		OnMoved:      p.recordInference,
	})
}

// shipment builds the stage-5 transfer, skipped when upstream produced
// no tile files.
func (p *Run) shipment(svc *stage.InferenceService) *stage.Shipment {
	return stage.NewShipment(stage.ShipmentConfig{
		SrcDir:    p.cfg.OutboxDir,
		DestDir:   p.cfg.DestDir,
		Skip:      func() bool { return svc.Expected() == 0 },
		OnShipped: p.recordShipment,
	})
}

// finish copies the stage outcomes into the report.
func (p *Run) finish(rep *Report, rc *stage.RunContext, svc *stage.InferenceService, ship *stage.Shipment) {
	rep.TilesLabeled = svc.TilesLabeled()
	rep.FlowsFailed = svc.FlowsFailed()
	rep.FilesShipped = ship.FilesShipped()
	rep.Elapsed = time.Since(rc.Epoch)
	rep.Metrics = p.metrics.Snapshot()
}

// Run executes the batch workflow: every configured granule is handed
// to RunStream's driver at once. Each granule is one fleet task that
// fetches whatever DataDir lacks, tiles, labels and publishes it into
// OutboxDir; the inference service arms during orchestrator setup and
// counts those files as they are published (and labels any tile file
// another writer drops into TileDir); shipment begins once every file
// is in.
func (p *Run) Run(ctx context.Context) (*Report, error) {
	ids := p.cfg.GranuleIDs()
	arrivals := make(chan int, len(ids))
	for _, g := range ids {
		select {
		case arrivals <- g.Index:
		case <-ctx.Done(): // RunStream reports the cancellation
		}
	}
	close(arrivals)
	return p.RunStream(ctx, arrivals)
}

// Summary renders a one-paragraph report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "granules=%d files=%d bytes=%d tileFiles=%d tiles=%d labeled=%d shipped=%d elapsed=%s",
		r.GranulesRequested, r.FilesDownloaded, r.BytesDownloaded,
		r.TileFiles, r.TilesProduced, r.TilesLabeled, r.FilesShipped, r.Elapsed.Round(time.Millisecond))
	if r.FlowsFailed > 0 {
		fmt.Fprintf(&b, " flowsFailed=%d", r.FlowsFailed)
	}
	return b.String()
}
