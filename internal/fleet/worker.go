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
	// ListenAddr is the endpoint's listen address; default "127.0.0.1:0"
	// (an OS-assigned port).
	ListenAddr string
	// AdvertiseURL overrides the URL registered with the coordinator;
	// default is the actual listen address. Set it when the worker sits
	// behind NAT or a different hostname (multi-facility).
	AdvertiseURL string
	// Slots is how many granule tasks compute (decode, tile, label,
	// write) at once; default 1.
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
	// Slots + PrefetchWindow and runs that many tasks at once. 0 leases
	// no more than Slots.
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

// Worker is one fleet worker process: a compute endpoint serving the
// standard kernels over HTTP, registered with a coordinator and kept
// live by heartbeats. Start it, let the coordinator lease tasks to it,
// Stop it to drain gracefully.
type Worker struct {
	cfg      WorkerConfig
	client   *Client
	ep       *compute.Endpoint
	srv      *http.Server
	kernels  *Kernels
	gate     chan struct{} // the granule kernel's Slots compute slots
	capacity int           // Slots + PrefetchWindow: registered, and the endpoint's pool size

	mu sync.Mutex
	// url is the advertised endpoint URL, known after Start. guarded by mu
	url string
	// stop cancels the heartbeat loop. guarded by mu
	stop context.CancelFunc

	wg sync.WaitGroup
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
	// Lease-ahead: run more tasks than compute slots, so the next
	// PrefetchWindow granules fetch while the slots compute.
	capacity := cfg.Slots + cfg.PrefetchWindow
	ep, err := compute.NewEndpoint(cfg.ID, reg, compute.EndpointConfig{
		Workers:     capacity,
		TaskTimeout: cfg.TaskTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &Worker{
		cfg:      cfg,
		client:   NewClient(cfg.CoordinatorURL),
		ep:       ep,
		kernels:  kernels,
		gate:     gate,
		capacity: capacity,
	}, nil
}

// Kernels exposes the worker's kernel state (cache statistics) for
// tests and benchmarks.
func (w *Worker) Kernels() *Kernels { return w.kernels }

// URL reports the advertised endpoint URL (empty before Start).
func (w *Worker) URL() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.url
}

// Start listens, launches the task pool, registers with the
// coordinator, and begins heartbeating. ctx bounds the registration
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
	w.ep.Start()
	w.srv = &http.Server{Handler: w.ep.Handler()}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_ = w.srv.Serve(ln) // returns on Close/Shutdown
	}()

	cadence, err := w.client.Register(ctx, w.cfg.ID, url, w.capacity)
	if err != nil {
		_ = w.srv.Close()
		w.ep.Stop()
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
				_, _ = w.client.Register(ctx, w.cfg.ID, url, w.capacity)
			}
		}
	}
}

// Stop drains gracefully: stop heartbeating, deregister so the
// coordinator leases nothing new here (late submissions get the typed
// compute.ErrDraining and requeue), finish in-flight tasks, then shut
// the HTTP server down once outstanding result polls settle.
func (w *Worker) Stop() {
	w.mu.Lock()
	stop := w.stop
	w.stop = nil
	w.mu.Unlock()
	if stop != nil {
		stop()
	}
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.client.Deregister(dctx, w.cfg.ID)
	w.ep.Stop()
	if w.srv != nil {
		_ = w.srv.Shutdown(dctx)
		_ = w.srv.Close()
	}
	w.wg.Wait()
}
