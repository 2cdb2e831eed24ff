// Package fleet is the real multi-process distribution layer: a
// coordinator that leases granule tasks (fetch, tile, label, publish:
// one lease per granule) to a pool of worker processes
// (cmd/eoml-worker) over the compute fabric's HTTP transport. Workers
// register their endpoint URL with the coordinator, send heartbeats, and
// execute tasks that ship granule *references* — paths on shared storage
// plus archive credentials for workers without one — never granule
// bytes. The coordinator provides what the paper's multi-facility
// setting demands of a scheduler: per-worker in-flight bounds, lease +
// requeue when a worker's heartbeats stop, speculative work stealing
// from stragglers (safe because the kernel writes its output atomically
// and deterministically, so a duplicated task is idempotent).
// NewInProcess builds the degenerate fleet: one worker that is the
// calling process itself, reached by direct call.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/metrics"
)

// Transport executes one task on a worker endpoint and blocks until the
// task finishes. A returned *TaskError means the task function itself
// failed (fatal for the task); any other error is a transport failure
// (worker unreachable, endpoint draining) and the coordinator requeues
// the lease.
type Transport interface {
	Run(ctx context.Context, workerURL, function string, args map[string]any) (any, error)
}

// TaskError marks a failure reported by the task function itself, as
// opposed to a failure reaching the worker. Retrying deterministic
// kernels cannot fix it, so the coordinator fails the task immediately.
type TaskError struct{ Msg string }

func (e *TaskError) Error() string { return e.Msg }

// Config tunes a Coordinator.
type Config struct {
	// HeartbeatTimeout evicts a worker whose last heartbeat is older
	// than this; its uncompleted leases are requeued. Default 3s.
	HeartbeatTimeout time.Duration
	// SweepEvery is the period of the background liveness/steal
	// sweep started by Start. Default HeartbeatTimeout/4.
	SweepEvery time.Duration
	// MaxAttempts bounds dispatches per task (first try + requeues).
	// Default 3.
	MaxAttempts int
	// StealAfter lets an idle worker duplicate ("steal") a lease that
	// has been outstanding on another worker for longer than this; the
	// first result wins and the loser is discarded. Kernels write
	// atomically and deterministically, so duplication is safe.
	// 0 means the default 10s; negative disables stealing.
	StealAfter time.Duration
	// Transport executes tasks on workers; default is the compute HTTP
	// transport.
	Transport Transport
	// Clock replaces the time source (tests). Default time.Now.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.HeartbeatTimeout / 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.StealAfter == 0 {
		c.StealAfter = 10 * time.Second
	}
	if c.Transport == nil {
		c.Transport = NewHTTPTransport()
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// worker is the coordinator's view of one registered worker process.
type worker struct {
	id  string
	url string
	// capacity bounds in-flight leases on this worker. guarded by mu
	capacity int
	// lastBeat is the most recent registration or heartbeat. guarded by mu
	lastBeat time.Time
	// inflight counts leases currently executing there. guarded by mu
	inflight int
}

// task is one unit of leased work.
type task struct {
	id   string
	fn   string
	args map[string]any
	fut  *Future
	// ctx is the submitter's context, additionally canceled when the
	// coordinator closes.
	ctx    context.Context
	cancel context.CancelFunc
	detach func() bool // releases the coordinator-close AfterFunc
	// attempts counts dispatches (incremented at lease). guarded by mu
	attempts int
	// done marks the first completion; later results are discarded —
	// the dedupe that makes lease requeue and stealing label nothing
	// twice. guarded by mu
	done bool
	// stolen marks that a speculative duplicate was dispatched, so a
	// task is stolen at most once. guarded by mu
	stolen bool
	// leasedAt is the most recent dispatch instant. guarded by mu
	leasedAt time.Time
	// assigned holds the worker IDs currently executing this task
	// (primary lease plus at most one steal). guarded by mu
	assigned map[string]bool
}

// Future is the submitter's handle to a fleet task.
type Future struct {
	// TaskID is the coordinator-assigned task identity.
	TaskID string

	mu     sync.Mutex
	result any
	err    error
	done   chan struct{}
}

// Get blocks until the task completes or ctx is canceled.
func (f *Future) Get(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.result, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Done returns a channel closed when the task completes.
func (f *Future) Done() <-chan struct{} { return f.done }

func (f *Future) complete(result any, err error) {
	f.mu.Lock()
	f.result, f.err = result, err
	f.mu.Unlock()
	close(f.done)
}

// Coordinator leases tasks to registered workers. Construct with
// NewCoordinator, optionally Start the background sweep, Submit tasks,
// and Close to unwind.
type Coordinator struct {
	cfg Config

	base       context.Context
	baseCancel context.CancelFunc

	mu sync.Mutex
	// workers maps worker ID to its record. guarded by mu
	workers map[string]*worker
	// pending is the FIFO dispatch queue. guarded by mu
	pending []*task
	// leased holds every task with at least one live lease. guarded by mu
	leased map[string]*task
	// nextID numbers tasks. guarded by mu
	nextID int
	// closed rejects further submissions. guarded by mu
	closed bool

	wg     sync.WaitGroup // execute goroutines
	loopWG sync.WaitGroup // Start's sweep loop

	// Monotonic counters, exposed via Instrument.
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	requeued  atomic.Int64
	stolen    atomic.Int64
	evicted   atomic.Int64
}

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	base, cancel := context.WithCancel(context.Background())
	return &Coordinator{
		cfg:        cfg.withDefaults(),
		base:       base,
		baseCancel: cancel,
		workers:    map[string]*worker{},
		leased:     map[string]*task{},
	}
}

// Instrument registers the eoml_fleet_* series on reg. Safe to call
// once per registry.
func (c *Coordinator) Instrument(reg *metrics.Registry) {
	reg.GaugeFunc("eoml_fleet_workers",
		"Worker processes currently registered and live.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.workers)) })
	reg.GaugeFunc("eoml_fleet_tasks_pending",
		"Tasks queued at the coordinator awaiting a free worker slot.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.pending)) })
	reg.GaugeFunc("eoml_fleet_tasks_inflight",
		"Leases currently executing across all workers (steals count).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, w := range c.workers {
				n += w.inflight
			}
			return float64(n)
		})
	reg.CounterFunc("eoml_fleet_tasks_submitted_total",
		"Tasks accepted by Submit.", func() float64 { return float64(c.submitted.Load()) })
	reg.CounterFunc("eoml_fleet_tasks_completed_total",
		"Tasks that delivered a successful result (each counted once).",
		func() float64 { return float64(c.completed.Load()) })
	reg.CounterFunc("eoml_fleet_tasks_failed_total",
		"Tasks that failed terminally (task error, cancellation, or attempts exhausted).",
		func() float64 { return float64(c.failed.Load()) })
	reg.CounterFunc("eoml_fleet_tasks_requeued_total",
		"Leases returned to the queue after a transport failure, drain rejection, or worker eviction.",
		func() float64 { return float64(c.requeued.Load()) })
	reg.CounterFunc("eoml_fleet_tasks_stolen_total",
		"Speculative duplicate leases dispatched to idle workers from stragglers.",
		func() float64 { return float64(c.stolen.Load()) })
	reg.CounterFunc("eoml_fleet_workers_evicted_total",
		"Workers evicted after missing their heartbeat budget or failing a transport call.",
		func() float64 { return float64(c.evicted.Load()) })
}

// Register adds a worker (or refreshes its URL/capacity) and counts as
// a heartbeat. capacity <= 0 defaults to 1.
func (c *Coordinator) Register(id, url string, capacity int) error {
	if id == "" || url == "" {
		return fmt.Errorf("fleet: register needs a worker id and url")
	}
	if capacity <= 0 {
		capacity = 1
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("fleet: coordinator closed")
	}
	w, ok := c.workers[id]
	if !ok {
		w = &worker{id: id}
		c.workers[id] = w
	}
	w.url = url
	w.capacity = capacity
	w.lastBeat = c.cfg.Clock()
	c.dispatchLocked()
	c.mu.Unlock()
	return nil
}

// Heartbeat refreshes a worker's liveness; false means the worker is
// unknown (evicted or never registered) and should re-register.
func (c *Coordinator) Heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	w.lastBeat = c.cfg.Clock()
	return true
}

// Deregister removes a worker gracefully. In-flight leases are left to
// finish; if the worker's endpoint is already gone their transport
// calls fail and the leases requeue.
func (c *Coordinator) Deregister(id string) {
	c.mu.Lock()
	delete(c.workers, id)
	c.mu.Unlock()
}

// WorkerStatus is one worker's row in Workers().
type WorkerStatus struct {
	ID            string  `json:"id"`
	URL           string  `json:"url"`
	Capacity      int     `json:"capacity"`
	InFlight      int     `json:"in_flight"`
	SinceBeatSecs float64 `json:"since_beat_seconds"`
}

// Workers reports the live worker set, sorted by ID.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			ID: w.id, URL: w.url, Capacity: w.capacity, InFlight: w.inflight,
			SinceBeatSecs: now.Sub(w.lastBeat).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Submit enqueues one task for the named worker function and returns
// its future. The task runs under ctx: canceling it fails the task
// (and aborts its in-flight leases) rather than requeueing it.
func (c *Coordinator) Submit(ctx context.Context, function string, args map[string]any) (*Future, error) {
	if function == "" {
		return nil, fmt.Errorf("fleet: submit needs a function name")
	}
	tctx, tcancel := context.WithCancel(ctx)
	detach := context.AfterFunc(c.base, tcancel)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		detach()
		tcancel()
		return nil, fmt.Errorf("fleet: coordinator closed")
	}
	c.nextID++
	id := fmt.Sprintf("fleet-task-%06d", c.nextID)
	t := &task{
		id: id, fn: function, args: args,
		fut:    &Future{TaskID: id, done: make(chan struct{})},
		ctx:    tctx,
		cancel: tcancel,
		detach: detach,
		// assigned is allocated at first lease.
	}
	c.submitted.Add(1)
	c.pending = append(c.pending, t)
	c.dispatchLocked()
	c.mu.Unlock()
	return t.fut, nil
}

// Start launches the periodic sweep (heartbeat eviction, stealing)
// until ctx is done or Close is called. Tests that use a fake clock skip
// Start and call Sweep directly.
func (c *Coordinator) Start(ctx context.Context) {
	c.loopWG.Add(1)
	go func() {
		defer c.loopWG.Done()
		ticker := time.NewTicker(c.cfg.SweepEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.base.Done():
				return
			case <-ticker.C:
				c.Sweep()
			}
		}
	}()
}

// Close rejects further submissions, cancels every task context (which
// aborts in-flight transport calls), fails still-queued tasks, and
// joins all goroutines.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.baseCancel()
	c.mu.Lock()
	for _, t := range c.pending {
		c.completeLocked(t, nil, fmt.Errorf("fleet: coordinator closed"))
	}
	c.pending = nil
	c.mu.Unlock()
	c.loopWG.Wait()
	c.wg.Wait()
}

// Sweep runs one liveness pass: evict workers past their heartbeat
// budget (requeueing their leases), dispatch, and steal from
// stragglers. Start calls this periodically; tests call it directly
// after advancing a fake clock.
func (c *Coordinator) Sweep() {
	now := c.cfg.Clock()
	c.mu.Lock()
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.cfg.HeartbeatTimeout {
			continue
		}
		c.evictLocked(id, fmt.Errorf("worker %s evicted (heartbeat lost)", id))
	}
	c.dispatchLocked()
	c.stealLocked(now)
	c.mu.Unlock()
}

// evictLocked removes a worker and requeues its sole-assigned leases.
// The zombie execute goroutines still blocked on its transport calls
// find their lease revoked when they return and discard everything
// except a successful result, so nothing completes twice.
func (c *Coordinator) evictLocked(id string, cause error) {
	if _, ok := c.workers[id]; !ok {
		return
	}
	delete(c.workers, id)
	c.evicted.Add(1)
	for _, t := range c.leased {
		if !t.assigned[id] {
			continue
		}
		delete(t.assigned, id)
		if !t.done && len(t.assigned) == 0 {
			delete(c.leased, t.id)
			c.requeueLocked(t, cause)
		}
	}
}

// requeueLocked puts a revoked lease back at the front of the queue,
// or fails the task when its attempt budget is spent.
func (c *Coordinator) requeueLocked(t *task, cause error) {
	if t.done {
		return
	}
	if t.attempts >= c.cfg.MaxAttempts {
		c.completeLocked(t, nil, fmt.Errorf("fleet: task %s failed after %d attempts: %w", t.id, t.attempts, cause))
		return
	}
	c.requeued.Add(1)
	c.pending = append([]*task{t}, c.pending...)
}

// completeLocked delivers the task's first (and only) outcome.
func (c *Coordinator) completeLocked(t *task, result any, err error) {
	if t.done {
		return
	}
	t.done = true
	delete(c.leased, t.id)
	if err != nil {
		c.failed.Add(1)
	} else {
		c.completed.Add(1)
	}
	// Cancel the task context: any straggler duplicate still executing
	// aborts its transport call instead of wasting the worker.
	t.detach()
	t.cancel()
	t.fut.complete(result, err)
}

// dispatchLocked leases pending tasks, one per free slot, to the
// least-loaded workers. Each lease is one Transport.Run, and each
// completion calls back here, so a slot is refilled the moment its task
// settles.
func (c *Coordinator) dispatchLocked() {
	now := c.cfg.Clock()
	for len(c.pending) > 0 {
		w := c.pickWorkerLocked(nil)
		if w == nil {
			return
		}
		t := c.pending[0]
		c.pending = c.pending[1:]
		switch {
		case t.done:
			// Requeued, then settled by a revoked lease's late success.
		case t.ctx.Err() != nil:
			c.completeLocked(t, nil, t.ctx.Err())
		default:
			c.leaseLocked(t, w, now)
		}
	}
}

// pickWorkerLocked returns the live worker with the lowest in-flight
// count that still has free capacity (ties broken by ID for
// determinism), or nil. A non-nil exclude set skips those workers.
func (c *Coordinator) pickWorkerLocked(exclude map[string]bool) *worker {
	var best *worker
	for _, w := range c.workers {
		if w.inflight >= w.capacity || exclude[w.id] {
			continue
		}
		if best == nil || w.inflight < best.inflight || (w.inflight == best.inflight && w.id < best.id) {
			best = w
		}
	}
	return best
}

// leaseLocked records the lease and launches its execute goroutine.
func (c *Coordinator) leaseLocked(t *task, w *worker, now time.Time) {
	t.attempts++
	t.leasedAt = now
	if t.assigned == nil {
		t.assigned = map[string]bool{}
	}
	t.assigned[w.id] = true
	c.leased[t.id] = t
	w.inflight++
	c.wg.Add(1)
	go c.execute(t, w)
}

// execute runs one lease to completion on the worker and folds the
// outcome back into the coordinator state.
func (c *Coordinator) execute(t *task, w *worker) {
	defer c.wg.Done()
	result, err := c.cfg.Transport.Run(t.ctx, w.url, t.fn, t.args)

	c.mu.Lock()
	w.inflight--
	mine := t.assigned[w.id]
	delete(t.assigned, w.id)
	if len(t.assigned) == 0 {
		delete(c.leased, t.id)
	}
	var taskErr *TaskError
	switch {
	case t.done:
		// A duplicate (steal loser) or post-eviction zombie: discard.
	case err == nil:
		// Success always wins, even from a revoked lease — the work is
		// done and atomic, so deliver it.
		c.completeLocked(t, result, nil)
	case !mine:
		// Lease revoked by eviction, which already requeued the task;
		// this goroutine's failure is stale news.
	case t.ctx.Err() != nil:
		c.completeLocked(t, nil, t.ctx.Err())
	case errors.As(err, &taskErr):
		// The task function itself failed; kernels are deterministic,
		// so retrying elsewhere cannot help.
		c.completeLocked(t, nil, err)
	default:
		// Transport failure: requeue the lease. A non-drain failure
		// (connection refused, poll error) is strong evidence the
		// worker process died, so evict it now instead of waiting out
		// its heartbeat budget; a draining worker is shutting down
		// cleanly and deregisters itself.
		c.requeueLocked(t, err)
		if !errors.Is(err, compute.ErrDraining) {
			c.evictLocked(w.id, err)
		}
	}
	c.dispatchLocked()
	c.mu.Unlock()
}

// stealLocked dispatches speculative duplicates of stale leases to
// idle capacity. Each task is stolen at most once; the first result
// wins and completeLocked discards the loser.
func (c *Coordinator) stealLocked(now time.Time) {
	if c.cfg.StealAfter < 0 || len(c.pending) > 0 {
		return
	}
	for _, t := range c.leased {
		if t.done || t.stolen || now.Sub(t.leasedAt) <= c.cfg.StealAfter {
			continue
		}
		w := c.pickWorkerLocked(t.assigned)
		if w == nil {
			return
		}
		t.stolen = true
		c.stolen.Add(1)
		c.leaseLocked(t, w, now)
	}
}
