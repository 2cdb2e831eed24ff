package stage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/flows"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/watch"
)

// flowDefinition is the Globus-Flows-style definition of stages 3–4:
// label the watched file, then move it to the shipment outbox.
const flowDefinition = `{
  "Comment": "EO-ML inference flow: label tiles, stage for shipment",
  "StartAt": "Infer",
  "States": {
    "Infer": {
      "Type": "Action",
      "ActionProvider": "inference",
      "Parameters": {"file": "$.file"},
      "ResultPath": "$.labeled",
      "Next": "Move"
    },
    "Move": {
      "Type": "Action",
      "ActionProvider": "move",
      "Parameters": {"file": "$.file", "outbox": "$.outbox", "labeled": "$.labeled"},
      "ResultPath": "$.moved",
      "Next": "Done"
    },
    "Done": {"Type": "Succeed"}
  }
}`

// InferenceConfig tunes an InferenceService.
type InferenceConfig struct {
	// Labeler performs the actual tile classification.
	Labeler *aicca.Labeler
	// BatchTiles caps the cross-file encode batch.
	BatchTiles int
	// Precision, when non-empty, overrides the labeler's encode
	// arithmetic for batches flushed through this service.
	Precision aicca.Precision
	// WatchDir is the directory the monitor crawls for tile files.
	WatchDir string
	// Pattern filters watched file names; default "*.nc".
	Pattern string
	// PollInterval is the crawler's scan period.
	PollInterval time.Duration
	// Workers bounds the inference worker pool; default 1.
	Workers int
	// OutboxDir receives labeled files staged for shipment.
	OutboxDir string
	// StallTimeout caps the wait for inference to catch up with the
	// expected file count; default 5 minutes.
	StallTimeout time.Duration
	// OnMoved, when set, observes every labeled file reaching OutboxDir
	// (provenance): moved there by a flow, or reported through Published.
	OnMoved func(src, dst string, labeled int, started, ended time.Time)
}

func (c InferenceConfig) withDefaults() InferenceConfig {
	if c.Pattern == "" {
		c.Pattern = "*.nc"
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 5 * time.Minute
	}
	return c
}

// InferenceService is the monitor & trigger + inference machinery of
// the workflow as one reusable stage: a filesystem crawler feeding a
// bounded worker pool that runs the label-and-move flow through a
// cross-file encode batcher, plus Published for files that reach the
// outbox already labeled. Both the batch and the streaming driver
// compose this same service.
//
// A watched tile file triggers on the first scan that sees it (WatchDir
// is declared rename-published: tile writers publish by temp+rename),
// and the batcher encodes at once when idle, so the PollInterval tick
// is the only wait on the label path.
//
// Lifecycle: Setup builds the batcher, flow engine, and crawler and
// arms the background goroutines; ExpectFiles tells the service how
// many files upstream produced; Run blocks until that many flows
// completed (successfully or not) and returns the join of all flow
// errors; Drain retires the crawler, pool, and batcher gracefully; Close
// is the idempotent forced variant for error paths.
type InferenceService struct {
	cfg InferenceConfig

	batcher     *aicca.BatchLabeler
	engine      *flows.Engine
	def         *flows.Definition
	crawler     *watch.Crawler
	events      chan watch.Event
	progress    chan struct{}
	stopCrawler context.CancelFunc
	crawlerDone chan struct{}
	poolWG      sync.WaitGroup
	armed       bool
	stopOnce    sync.Once

	health       *metrics.Health
	monitorIn    *metrics.Counter
	monitorOut   *metrics.Counter
	flowIn       *metrics.Counter
	flowOut      *metrics.Counter
	flowFailures *metrics.Counter
	tilesCtr     *metrics.Counter

	mu           sync.Mutex
	expected     int
	expectSet    bool
	completed    int
	filesLabeled int
	tilesLabeled int
	flowErrs     []error
}

// NewInferenceService builds an unarmed service; Setup arms it.
func NewInferenceService(cfg InferenceConfig) *InferenceService {
	return &InferenceService{cfg: cfg.withDefaults()}
}

// Name implements Stage.
func (s *InferenceService) Name() string { return "inference" }

// Setup builds the machinery and arms the crawler and worker pool.
func (s *InferenceService) Setup(ctx context.Context, rc *RunContext) error {
	// Register the monitor & trigger and inference series eagerly, and
	// arm the inference stall clock with the same budget Run's abort
	// timer uses, so /healthz flips stalled around the time Run gives
	// up. The monitor stage is the crawler inside this service — it has
	// no orchestrator slot, so its series are owned here.
	s.health = rc.Health
	s.monitorIn = rc.EventCounter("monitor", EventIn)
	s.monitorOut = rc.EventCounter("monitor", EventOut)
	s.flowIn = rc.EventCounter(s.Name(), EventIn)
	s.flowOut = rc.EventCounter(s.Name(), EventOut)
	s.flowFailures = rc.Metrics.Counter("eoml_inference_flow_failures_total",
		"Label-and-move flows that returned an error.")
	s.tilesCtr = rc.Metrics.Counter("eoml_inference_tiles_labeled_total",
		"Tiles labeled across all watched and published files.")
	rc.Metrics.GaugeFunc("eoml_inference_files_expected",
		"Tile files upstream says to expect (0 until the expectation is set).",
		func() float64 { return float64(s.Expected()) })
	rc.Metrics.CounterFunc("eoml_inference_flows_completed_total",
		"Label-and-move flows finished, successfully or not, plus files published already labeled.",
		func() float64 { return float64(s.Completed()) })
	rc.Health.Watch("monitor", 0)
	rc.Health.Watch(s.Name(), s.cfg.StallTimeout)
	if s.cfg.Labeler != nil {
		s.cfg.Labeler.Model.Arena().Instrument(rc.Metrics, "ricc")
	}

	s.batcher = aicca.NewBatchLabeler(s.cfg.Labeler, aicca.BatchConfig{
		MaxTiles:  s.cfg.BatchTiles,
		Timeline:  rc.Timeline,
		Epoch:     rc.Epoch,
		Metrics:   rc.Metrics,
		Precision: s.cfg.Precision,
	})
	s.engine = flows.NewEngine(flows.EngineConfig{})
	if err := s.engine.RegisterProvider("inference", s.inferenceProvider()); err != nil {
		return err
	}
	if err := s.engine.RegisterProvider("move", s.moveProvider()); err != nil {
		return err
	}
	def, err := flows.ParseDefinition([]byte(flowDefinition))
	if err != nil {
		return err
	}
	s.def = def
	s.crawler, err = watch.NewCrawler(watch.Config{
		Dir:             s.cfg.WatchDir,
		Pattern:         s.cfg.Pattern,
		Interval:        s.cfg.PollInterval,
		RenamePublished: true,
	})
	if err != nil {
		return err
	}

	s.events = make(chan watch.Event, 4*s.cfg.Workers+64)
	s.progress = make(chan struct{}, 1)
	s.crawlerDone = make(chan struct{})
	crawlCtx, stop := context.WithCancel(ctx)
	s.stopCrawler = stop

	for w := 0; w < s.cfg.Workers; w++ {
		s.poolWG.Add(1)
		go s.worker(ctx, rc)
	}
	go func() {
		defer close(s.crawlerDone)
		_ = s.crawler.Run(crawlCtx, func(evs []watch.Event) error {
			for _, ev := range evs {
				s.monitorIn.Inc()
				s.health.Beat("monitor")
				// Enqueue must never block past cancellation: after the
				// pool exits (cancelled run), nothing drains events, so a
				// bare send could wedge the crawler goroutine forever.
				select {
				case s.events <- ev:
					s.monitorOut.Inc()
				case <-crawlCtx.Done():
					return crawlCtx.Err()
				}
			}
			return nil
		})
	}()
	s.armed = true
	return nil
}

// worker labels and moves watched files until the event channel closes.
func (s *InferenceService) worker(ctx context.Context, rc *RunContext) {
	defer s.poolWG.Done()
	//eomlvet:ignore ctxsend bounded drain: shutdown() closes events only after the crawler (sole sender) has exited, so the range always terminates
	for ev := range s.events {
		s.flowIn.Inc()
		run, err := s.engine.Start(ctx, s.def, map[string]any{
			"file":   ev.Path,
			"outbox": s.cfg.OutboxDir,
		})
		var out map[string]any
		if err == nil {
			out, err = run.Wait(ctx)
		}
		if err != nil {
			err = fmt.Errorf("flow %s: %w", filepath.Base(ev.Path), err)
			s.flowFailures.Inc()
		} else {
			s.flowOut.Inc()
		}
		labeled, _ := out["labeled"].(int)
		s.settle(rc, labeled, rc.Since(), err)
	}
}

// settle counts one file as done — labeled and in OutboxDir at run
// offset at, or failed with err — and wakes Run.
func (s *InferenceService) settle(rc *RunContext, labeled int, at float64, err error) {
	s.mu.Lock()
	s.completed++
	if err != nil {
		s.flowErrs = append(s.flowErrs, err)
	} else {
		s.filesLabeled++
		s.tilesLabeled += labeled
		s.tilesCtr.Add(int64(labeled))
		rc.Timeline.Record("inference", at, s.filesLabeled)
	}
	s.mu.Unlock()
	// Every settled file — failed or not — is liveness: the stall clock
	// tracks progress, not success.
	s.health.Beat(s.Name())
	s.bump()
}

// Published counts a file that reached OutboxDir already labeled — the
// granule task writes its labeled NetCDF there directly — as
// one completed file, exactly as if a flow had labeled and moved it:
// ExpectFiles, the stall clock and the shipment gate see no difference,
// and OnMoved fires with the labeling interval the producer reports.
// The monitor and flow event series do not count it; nothing was
// watched or triggered. Call only after Setup.
func (s *InferenceService) Published(rc *RunContext, path string, labeled int, started, ended time.Time) {
	if s.cfg.OnMoved != nil {
		s.cfg.OnMoved(path, path, labeled, started, ended)
	}
	s.settle(rc, labeled, ended.Sub(rc.Epoch).Seconds(), nil)
}

// bump nudges the progress channel so Run re-checks its condition.
func (s *InferenceService) bump() {
	select {
	case s.progress <- struct{}{}:
	default:
	}
}

// ExpectFiles tells the service how many tile files upstream produced;
// Run returns once that many flows have completed. Safe to call while
// Run is already waiting.
func (s *InferenceService) ExpectFiles(n int) {
	s.mu.Lock()
	s.expected = n
	s.expectSet = true
	s.mu.Unlock()
	s.bump()
}

// Run blocks until every expected file's flow completed, then returns
// the join of all flow errors (nil when every flow succeeded). Failed
// flows still count toward completion, so a bad file cannot stall the
// run — its error surfaces in the join instead.
func (s *InferenceService) Run(ctx context.Context, rc *RunContext) error {
	stall := time.NewTimer(s.cfg.StallTimeout)
	defer stall.Stop()
	for {
		s.mu.Lock()
		done := s.expectSet && s.completed >= s.expected
		completed, expected := s.completed, s.expected
		s.mu.Unlock()
		if done {
			break
		}
		select {
		case <-s.progress:
		case <-ctx.Done():
			return ctx.Err()
		case <-stall.C:
			return fmt.Errorf("inference stalled: %d/%d files processed", completed, expected)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.flowErrs...)
}

// Drain gracefully retires the crawler, worker pool, and batcher.
func (s *InferenceService) Drain(ctx context.Context, rc *RunContext) error {
	s.shutdown()
	return nil
}

// Close tears the service down on any exit path; idempotent.
func (s *InferenceService) Close() error {
	if s.armed {
		s.shutdown()
	} else if s.batcher != nil {
		s.batcher.Close()
	}
	return nil
}

// shutdown stops the crawler, joins the pool, and closes the batcher,
// exactly once. Ordering matters: the crawler must have exited before
// events is closed, and the pool must have exited before the batcher
// (workers mid-flow still need it) is flushed and closed.
func (s *InferenceService) shutdown() {
	s.stopOnce.Do(func() {
		s.stopCrawler()
		//eomlvet:ignore ctxsend bounded join: stopCrawler cancels the crawler context, and the crawler closes crawlerDone on exit unconditionally
		<-s.crawlerDone
		close(s.events)
		s.poolWG.Wait()
		s.batcher.Close()
	})
}

// FilesLabeled reports how many watched files were labeled and moved.
func (s *InferenceService) FilesLabeled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.filesLabeled
}

// TilesLabeled reports the total tiles labeled across all files.
func (s *InferenceService) TilesLabeled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tilesLabeled
}

// FlowsFailed reports how many label-and-move flows failed.
func (s *InferenceService) FlowsFailed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flowErrs)
}

// Completed reports how many flows finished, successfully or not.
func (s *InferenceService) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// Expected reports the expected file count (zero until ExpectFiles).
func (s *InferenceService) Expected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expected
}

func (s *InferenceService) inferenceProvider() flows.ActionProvider {
	return func(ctx context.Context, params map[string]any) (any, error) {
		path, _ := params["file"].(string)
		if path == "" {
			return nil, fmt.Errorf("stage: inference action needs a file")
		}
		return s.batcher.LabelFile(path)
	}
}

func (s *InferenceService) moveProvider() flows.ActionProvider {
	return func(ctx context.Context, params map[string]any) (any, error) {
		started := time.Now()
		src, _ := params["file"].(string)
		outbox, _ := params["outbox"].(string)
		if src == "" || outbox == "" {
			return nil, fmt.Errorf("stage: move action needs file and outbox")
		}
		labeled, _ := params["labeled"].(int)
		dst := filepath.Join(outbox, filepath.Base(src))
		if err := os.Rename(src, dst); err != nil {
			// Cross-device rename fallback.
			if cerr := copyPreserving(src, dst); cerr != nil {
				return nil, cerr
			}
		}
		if s.cfg.OnMoved != nil {
			s.cfg.OnMoved(src, dst, labeled, started, time.Now())
		}
		return dst, nil
	}
}

// copyPreserving moves src to dst across filesystems: it copies into a
// temp file next to dst, carries over the source file mode, fsyncs, and
// renames into place before removing the source — so a crash mid-move
// can leave a stray temp file but never a truncated dst or a lost file.
func copyPreserving(src, dst string) error {
	info, err := os.Stat(src)
	if err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".move-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath) // no-op once renamed into place
	if _, err := io.Copy(tmp, in); err != nil {
		_ = tmp.Close() // the copy error is the one worth reporting
		return err
	}
	if err := tmp.Chmod(info.Mode().Perm()); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, dst); err != nil {
		return err
	}
	return os.Remove(src)
}
