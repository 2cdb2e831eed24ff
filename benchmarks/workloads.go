package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/metrics"
)

const (
	// streamGap is the open-loop schedule: 12.5 arrivals a second, about
	// a third of what the local pipeline sustains on two cores.
	streamGap = 80 * time.Millisecond
	// minCampaigns keeps the 95th percentile honest. A campaign's 95th
	// percentile is its 23rd completion of 24; the run reports the median
	// of that over the campaigns, and ten campaigns put ten granules
	// beyond it.
	minCampaigns = 10
	// campaignDeadline bounds one campaign or stream, so a hung run fails
	// in seconds with its workload and stage named.
	campaignDeadline = 60 * time.Second
	// maxLateP95 fails a stream_local run whose generator fell behind.
	maxLateP95 = 5 * time.Millisecond
)

// sample is one timed campaign or stream.
type sample struct {
	wall      time.Duration
	granules  int
	latencies []time.Duration // hand-over to labeled file visible in the outbox, per granule
	late      []time.Duration // stream only: how late each arrival was sent
	failures  []granuleFailure
	trace     *campaignTrace // traced pass only
}

// runDirs are one campaign's working directories, fresh every time.
type runDirs struct{ root, data, tiles, outbox, dest string }

// fleetEnv is one coordinator, two in-process workers and the engine
// that submits to them, all over loopback HTTP.
type fleetEnv struct {
	coord     *fleet.Coordinator
	stopSweep context.CancelFunc
	cp        *httptest.Server
	engine    *core.Engine
	reg       *metrics.Registry // coordinator series (eoml_fleet_*)
	workers   [poolSize]*fleet.Worker
	wregs     [poolSize]*metrics.Registry // worker cache and prefetch series
	cacheDirs [poolSize]string
}

func startFleet(root string) *fleetEnv {
	f := &fleetEnv{reg: metrics.NewRegistry()}
	f.coord = fleet.NewCoordinator(fleet.Config{})
	f.coord.Instrument(f.reg)
	sweepCtx, cancel := context.WithCancel(context.Background())
	f.stopSweep = cancel
	f.coord.Start(sweepCtx)
	f.cp = httptest.NewServer(f.coord.Handler())
	f.engine = core.NewEngine(core.EngineOptions{Fleet: f.coord})
	for i := range f.cacheDirs {
		f.cacheDirs[i] = filepath.Join(root, fmt.Sprintf("cache-w%d", i+1))
	}
	return f
}

// startWorker brings worker i up on its cache directory; the download
// cache rebuilds its index from whatever the directory already holds.
func (f *fleetEnv) startWorker(ctx context.Context, i int) error {
	f.wregs[i] = metrics.NewRegistry()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:             fmt.Sprintf("w%d", i+1),
		CoordinatorURL: f.cp.URL,
		Slots:          1,
		PrefetchWindow: 2,
		CacheDir:       f.cacheDirs[i],
		Metrics:        f.wregs[i],
	})
	if err != nil {
		return err
	}
	if err := w.Start(ctx); err != nil {
		return err
	}
	f.workers[i] = w
	return nil
}

func (f *fleetEnv) stopWorker(i int) {
	if f.workers[i] != nil {
		f.workers[i].Stop()
		f.workers[i] = nil
	}
}

// restartCold stops both workers, empties their caches and starts them
// again, so the next campaign fetches every byte from the archive.
func (f *fleetEnv) restartCold(ctx context.Context) error {
	for i := range f.workers {
		f.stopWorker(i)
		if err := os.RemoveAll(f.cacheDirs[i]); err != nil {
			return err
		}
	}
	for i := range f.workers {
		if err := f.startWorker(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleetEnv) close() {
	for i := range f.workers {
		f.stopWorker(i)
	}
	f.stopSweep()
	f.coord.Close()
	f.cp.Close()
}

// runner drives one workload against the shared inputs.
type runner struct {
	name  string
	in    *inputs
	root  string // campaign directories and worker caches live here
	next  int    // campaign directory counter; paths are never reused
	fleet *fleetEnv
	// tracer receives the traced campaigns' spans; nil in untraced runs.
	tracer *tracer
}

// note tells the watchdog what the workload is doing.
func (r *runner) note(stage string) { note(r.name + ": " + stage) }

func (r *runner) isFleet() bool { return r.name == wlFleetCold || r.name == wlFleetWarm }

// newDirs hands out a never-before-used directory set. Fleet workers
// memoize task results on output paths, so a reused path would let a
// stale memo answer for a new campaign.
func (r *runner) newDirs() runDirs {
	r.next++
	root := filepath.Join(r.root, fmt.Sprintf("run-%04d", r.next))
	return runDirs{
		root:   root,
		data:   filepath.Join(root, "data"),
		tiles:  filepath.Join(root, "tiles"),
		outbox: filepath.Join(root, "outbox"),
		dest:   filepath.Join(root, "dest"),
	}
}

func (r *runner) config(d runDirs, granules []int) core.Config {
	cfg := core.DefaultConfig()
	cfg.DOY = r.in.doy
	cfg.Year = year
	cfg.Granules = granules
	cfg.DataDir, cfg.TileDir, cfg.OutboxDir, cfg.DestDir = d.data, d.tiles, d.outbox, d.dest
	cfg.DownloadWorkers = poolSize
	cfg.PreprocessWorkers = poolSize
	cfg.TilePixels = tilePixels
	cfg.ArchiveURL = r.in.plain.URL()
	if r.isFleet() {
		cfg.ArchiveURL = r.in.shaped.URL()
		cfg.Distribution = core.DistributionFleet
		cfg.ModelPath, cfg.CodebookPath = r.in.model, r.in.codebook
	}
	return cfg
}

// prepare runs the workload's un-timed warm-up.
func (r *runner) prepare(ctx context.Context) error {
	switch r.name {
	case wlCampaignLocal, wlStreamLocal:
		return r.warmUp(ctx)
	case wlFleetCold:
		r.fleet = startFleet(r.root)
		if err := r.fleet.restartCold(ctx); err != nil {
			return err
		}
		return r.warmUp(ctx) // also makes the shaped archive synthesize every granule
	case wlFleetWarm:
		r.fleet = startFleet(r.root)
		// Warm each worker alone, so each cache holds the whole granule
		// set before both are registered.
		for i := range r.fleet.workers {
			if err := r.fleet.startWorker(ctx, i); err != nil {
				return err
			}
			if err := r.warmUp(ctx); err != nil {
				return err
			}
			r.fleet.stopWorker(i)
		}
		for i := range r.fleet.workers {
			if err := r.fleet.startWorker(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", r.name)
}

func (r *runner) warmUp(ctx context.Context) error {
	r.note("warm-up")
	s, err := r.campaign(ctx, false)
	if err != nil {
		return err
	}
	if len(s.failures) > 0 {
		return fmt.Errorf("warm-up: %v", s.failures[0])
	}
	return nil
}

// betweenCampaigns does the un-timed work a workload needs before each
// timed campaign.
func (r *runner) betweenCampaigns(ctx context.Context) error {
	if r.name == wlFleetCold {
		r.note("restarting workers with empty caches")
		return r.fleet.restartCold(ctx)
	}
	return nil
}

func (r *runner) close() {
	if r.fleet != nil {
		r.fleet.close()
	}
}

// campaign runs one campaign (or one stream) through fresh directories,
// checks what it shipped against the reference, and removes the
// directories again: a cold campaign writes about 110 MB.
func (r *runner) campaign(ctx context.Context, traced bool) (sample, error) {
	d := r.newDirs()
	defer os.RemoveAll(d.root)
	granules := r.in.granules
	cfg := r.config(d, r.in.indices())
	ctx, cancel := context.WithTimeout(ctx, campaignDeadline)
	defer cancel()

	var tr *tracePoint
	if traced {
		tr = beginTrace(r)
	}
	watcher := watchOutbox(d.outbox, len(granules))
	s := sample{granules: len(granules)}
	due := map[string]time.Time{}
	start := time.Now()
	var rep *core.Report
	var err error
	switch {
	case r.name == wlStreamLocal:
		rep, err = r.stream(ctx, cfg, start, due, &s)
	case r.isFleet():
		var run *core.Run
		if run, err = r.fleet.engine.NewRun(cfg, core.RunOptions{ID: filepath.Base(d.root)}); err == nil {
			rep, err = run.Run(ctx)
		}
	default:
		var pipe *core.Pipeline
		if pipe, err = core.New(cfg, r.in.labeler); err == nil {
			rep, err = pipe.Run(ctx)
		}
	}
	s.wall = time.Since(start)
	seen := watcher.Stop()
	if traced {
		s.trace = tr.end(rep, s.wall)
	}

	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return s, fmt.Errorf("%s: run exceeded %s: %w", r.name, campaignDeadline, err)
		}
		for _, g := range granules {
			s.failures = append(s.failures, granuleFailure{g.ID.Index, "run failed: " + err.Error()})
		}
		return s, nil
	}
	failed := map[int]bool{}
	for _, f := range verifyShipped(d.dest, granules) {
		s.failures = append(s.failures, f)
		failed[f.Granule] = true
	}
	for _, g := range granules {
		at, ok := seen[g.TileFile]
		if !ok {
			if !failed[g.ID.Index] {
				s.failures = append(s.failures, granuleFailure{g.ID.Index, "labeled file never seen in the outbox"})
			}
			continue
		}
		from, ok := due[g.TileFile]
		if !ok {
			from = start // closed loop: the whole campaign is handed over at once
		}
		s.latencies = append(s.latencies, at.Sub(from))
	}
	return s, nil
}

// stream feeds the granules to RunStream on the open-loop schedule and
// records each arrival's due time.
func (r *runner) stream(ctx context.Context, cfg core.Config, start time.Time, due map[string]time.Time, s *sample) (*core.Report, error) {
	ids := cfg.Granules
	cfg.Granules = nil // arrivals name the granules
	pipe, err := core.New(cfg, r.in.labeler)
	if err != nil {
		return nil, err
	}
	// Buffered to the whole schedule so the generator never blocks.
	feed := make(chan int, len(ids))
	fed := make(chan []arrival, 1)
	go func() { fed <- feedOnSchedule(start, streamGap, ids, feed) }()
	rep, err := pipe.RunStream(ctx, feed)
	arrivals := <-fed // the schedule is finite, so the generator always returns
	for i, a := range arrivals {
		due[r.in.granules[i].TileFile] = a.Due
		s.late = append(s.late, a.Late)
	}
	return rep, err
}

// measured is everything the timed loop of one run produced.
type measured struct {
	untraced, traced []sample
}

// measure runs timed campaigns for about the given number of seconds
// and at least minCampaigns of them. In the traced pass every other
// campaign is traced, the floor drops to three pairs (the pass reports
// medians, not tails), and the loop ends on a whole pair.
func measure(ctx context.Context, r *runner, seconds float64, withTrace bool) (measured, error) {
	var m measured
	floor := minCampaigns
	if withTrace {
		floor = 3
	}
	began := time.Now()
	for n := 0; time.Since(began).Seconds() < seconds || len(m.untraced) < floor || (withTrace && n%2 == 1); n++ {
		if err := r.betweenCampaigns(ctx); err != nil {
			return m, err
		}
		traced := withTrace && n%2 == 1
		r.note(fmt.Sprintf("timed campaign %d", n+1))
		runtime.GC() // start every campaign from the same heap state
		s, err := r.campaign(ctx, traced)
		if err != nil {
			return m, err
		}
		if traced {
			m.traced = append(m.traced, s)
		} else {
			m.untraced = append(m.untraced, s)
		}
	}
	return m, nil
}
