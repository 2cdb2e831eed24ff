package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
)

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// ID names the worker to the coordinator; required.
	ID string
	// CoordinatorURL is the control plane's base URL (the /fleet/
	// membership API); required.
	CoordinatorURL string
	// ListenAddr is the worker's listen address; default "127.0.0.1:0"
	// (an OS-assigned port).
	ListenAddr string
	// AdvertiseURL overrides the URL registered with the coordinator;
	// default is the actual listen address. Set it when the worker sits
	// behind NAT or a different hostname (multi-facility).
	AdvertiseURL string
	// Slots is how many tasks compute at once (a granule's decode, tile,
	// label and write; a tile file's encode); default 1.
	Slots int
	// Heartbeat overrides the cadence the coordinator requests; 0 obeys
	// the coordinator.
	Heartbeat time.Duration
	// TaskTimeout bounds each task's execution, including its wait for a
	// compute slot; 0 disables.
	TaskTimeout time.Duration
	// PrefetchWindow is how many more leases than Slots the worker takes:
	// those tasks fetch their archive inputs while every compute slot is
	// busy, then wait for one. The worker registers capacity
	// Slots + PrefetchWindow and runs at most that many tasks at once. 0
	// leases no more than Slots.
	PrefetchWindow int
	// CacheDir, when set, enables the content-addressed on-disk download
	// cache so re-leased granules hit disk instead of the archive.
	CacheDir string
	// CacheMaxBytes bounds the download cache; <= 0 means unbounded.
	CacheMaxBytes int64
	// ArchiveQuota, when set, gates every archive fetch on the owning
	// tenant's token bucket.
	ArchiveQuota *laads.QuotaPool
	// Metrics, when set, receives the worker-side cache and fetch series
	// (eoml_fleet_cache_*, eoml_fleet_prefetch_inflight).
	Metrics *metrics.Registry
	// Register, when set, adds extra functions to the worker's registry
	// before the standard kernels (tests).
	Register func(reg *compute.Registry) error
}

// Worker is one fleet worker process: a function registry holding the
// standard kernels, served over HTTP one task per POST /run, registered
// with a coordinator and kept live by heartbeats. Start it, let the
// coordinator lease tasks to it, Stop it to drain gracefully.
type Worker struct {
	cfg     WorkerConfig
	client  *Client
	reg     *compute.Registry
	srv     *http.Server
	kernels *Kernels
	gate    chan struct{} // the granule kernel's Slots compute slots
	// slots holds one token per running task: Slots + PrefetchWindow,
	// the capacity the worker registers.
	slots chan struct{}

	mu sync.Mutex
	// url is the advertised URL, known after Start. guarded by mu
	url string
	// stop cancels the heartbeat loop. guarded by mu
	stop context.CancelFunc

	wg sync.WaitGroup // the listener and the heartbeat loop
}

// NewWorker builds a worker; Start makes it live.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" || cfg.CoordinatorURL == "" {
		return nil, fmt.Errorf("fleet: worker needs an id and a coordinator url")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PrefetchWindow < 0 {
		cfg.PrefetchWindow = 0
	}
	reg := compute.NewRegistry()
	if cfg.Register != nil {
		if err := cfg.Register(reg); err != nil {
			return nil, err
		}
	}
	kernels, err := NewKernelsWith(KernelConfig{
		CacheDir:      cfg.CacheDir,
		CacheMaxBytes: cfg.CacheMaxBytes,
		Quota:         cfg.ArchiveQuota,
	})
	if err != nil {
		return nil, err
	}
	gate := make(chan struct{}, cfg.Slots)
	if err := kernels.Register(reg, gate, nil); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		kernels.Instrument(cfg.Metrics)
	}
	return &Worker{
		cfg:     cfg,
		client:  NewClient(cfg.CoordinatorURL),
		reg:     reg,
		kernels: kernels,
		gate:    gate,
		// Lease-ahead: run more tasks than compute slots, so the next
		// PrefetchWindow granules fetch while the slots compute.
		slots: make(chan struct{}, cfg.Slots+cfg.PrefetchWindow),
	}, nil
}

// Kernels exposes the worker's kernel state (cache statistics) for
// tests and benchmarks.
func (w *Worker) Kernels() *Kernels { return w.kernels }

// URL reports the advertised URL (empty before Start).
func (w *Worker) URL() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.url
}

// Start listens, registers with the coordinator, and begins
// heartbeating. ctx bounds the registration
// call only; the heartbeat loop runs until Stop.
func (w *Worker) Start(ctx context.Context) error {
	ln, err := net.Listen("tcp", w.cfg.ListenAddr)
	if err != nil {
		return err
	}
	url := w.cfg.AdvertiseURL
	if url == "" {
		url = "http://" + ln.Addr().String()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/run", w.handleRun)
	w.srv = &http.Server{Handler: mux}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_ = w.srv.Serve(ln) // returns on Close/Shutdown
	}()

	cadence, err := w.client.Register(ctx, w.cfg.ID, url, cap(w.slots))
	if err != nil {
		_ = w.srv.Close()
		w.wg.Wait()
		return fmt.Errorf("fleet: worker %s register: %w", w.cfg.ID, err)
	}
	if w.cfg.Heartbeat > 0 {
		cadence = w.cfg.Heartbeat
	}
	if cadence <= 0 {
		cadence = time.Second
	}

	hbCtx, cancel := context.WithCancel(context.Background())
	w.mu.Lock()
	w.url = url
	w.stop = cancel
	w.mu.Unlock()
	w.wg.Add(1)
	go w.heartbeatLoop(hbCtx, url, cadence)
	return nil
}

// heartbeatLoop keeps the worker live, re-registering if the
// coordinator evicted it (coordinator restart, missed heartbeats).
func (w *Worker) heartbeatLoop(ctx context.Context, url string, cadence time.Duration) {
	defer w.wg.Done()
	ticker := time.NewTicker(cadence)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			err := w.client.Heartbeat(ctx, w.cfg.ID)
			var unknown *ErrUnknownWorker
			if errors.As(err, &unknown) {
				_, _ = w.client.Register(ctx, w.cfg.ID, url, cap(w.slots))
			}
		}
	}
}

// run executes one leased task under ctx, the lease's request context:
// it waits for one of the worker's capacity slots, then runs the
// function through runTask, bounded by TaskTimeout.
func (w *Worker) run(ctx context.Context, function string, args map[string]any) (any, error) {
	select {
	case w.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-w.slots }()
	if w.cfg.TaskTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.cfg.TaskTimeout)
		defer cancel()
	}
	return runTask(ctx, w.reg, function, args)
}

// Stop drains gracefully: stop heartbeating, deregister so the
// coordinator leases nothing new here, then shut the listener down.
// Shutdown refuses later connections (a lease that races the
// deregistration fails to connect and is requeued elsewhere) and
// returns once every running task has written its answer.
func (w *Worker) Stop() {
	w.mu.Lock()
	stop := w.stop
	w.stop = nil
	w.mu.Unlock()
	if stop != nil {
		stop()
	}
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = w.client.Deregister(dctx, w.cfg.ID)
	cancel()
	if w.srv != nil {
		_ = w.srv.Shutdown(context.Background())
	}
	w.wg.Wait()
}
