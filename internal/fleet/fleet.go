// Package fleet is the real multi-process distribution layer: a
// coordinator that leases granule tasks (fetch, tile, label, publish:
// one lease per granule) to a pool of worker processes
// (cmd/eoml-worker) over the compute fabric's HTTP transport. Workers register their endpoint URL with the coordinator,
// send heartbeats, and execute tasks that ship granule *references* —
// paths on shared storage plus archive credentials for workers without
// one — never granule bytes. The coordinator provides what the paper's
// multi-facility setting demands of a scheduler: per-worker in-flight
// bounds, lease + requeue when a worker's heartbeats stop, speculative
// work stealing from stragglers (safe because the kernel writes its
// output atomically and deterministically, so a duplicated task is
// idempotent), and elastic scale-out/in hints mirroring internal/parsl
// block allocation.
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

// TaskSpec names one task of a batched lease.
type TaskSpec struct {
	Function string
	Args     map[string]any
}

// TaskResult is one task's outcome within a batched lease: Err nil on
// success, a *TaskError when the task function itself failed, anything
// else a per-task transport failure.
type TaskResult struct {
	Result any
	Err    error
}

// BatchTransport executes a whole lease batch on one worker endpoint —
// one submit round-trip carrying every task, one poll stream collecting
// every result — and blocks until all of them settle. The returned
// slice matches specs by index. A non-nil error is a batch-level
// transport failure (worker unreachable, endpoint draining): no
// per-task outcomes are known and the coordinator requeues every lease.
// Transports that also implement this interface get batched dispatch;
// plain Transports fall back to one Run call per task.
type BatchTransport interface {
	Transport
	RunBatch(ctx context.Context, workerURL string, specs []TaskSpec) ([]TaskResult, error)
}

// TaskError marks a failure reported by the task function itself, as
// opposed to a failure reaching the worker. Retrying deterministic
// kernels cannot fix it, so the coordinator fails the task immediately.
type TaskError struct{ Msg string }

func (e *TaskError) Error() string { return e.Msg }

// Scaler receives the coordinator's elastic provisioning hints, the
// counterpart of internal/parsl's block Provider: ScaleOut when the
// backlog exceeds fleet capacity, ScaleIn when workers sit idle. Both
// are hints — the scaler owns the actual worker lifecycle. Calls are
// made outside the coordinator's lock and may block briefly.
type Scaler interface {
	// ScaleOut reports that `backlog` pending tasks have no free worker
	// slot to run on.
	ScaleOut(backlog int)
	// ScaleIn reports workers that have been idle past the configured
	// retirement age and may be shut down.
	ScaleIn(ids []string)
}

// Config tunes a Coordinator.
type Config struct {
	// HeartbeatTimeout evicts a worker whose last heartbeat is older
	// than this; its uncompleted leases are requeued. Default 3s.
	HeartbeatTimeout time.Duration
	// SweepEvery is the period of the background liveness/steal/scale
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
	// IdleRetireAfter is how long a worker must be idle before the
	// coordinator hints ScaleIn for it; 0 disables the hint.
	IdleRetireAfter time.Duration
	// LeaseBatch caps how many pending tasks one dispatch leases to a
	// worker in a single transport round-trip (when the Transport also
	// implements BatchTransport). Default 8; 1 disables batching.
	LeaseBatch int
	// Transport executes tasks on workers; default is the compute HTTP
	// transport.
	Transport Transport
	// Scaler, when set, receives elastic provisioning hints.
	Scaler Scaler
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
	if c.LeaseBatch <= 0 {
		c.LeaseBatch = 8
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
	// idleSince is when inflight last dropped to zero. guarded by mu
	idleSince time.Time
	// retireHinted records that ScaleIn already named this worker, so
	// sweeps do not nag the scaler every period. guarded by mu
	retireHinted bool
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

	// Batch-size histograms, non-nil once Instrument runs. Written via
	// atomic pointer loads because dispatch runs concurrently with
	// Instrument in tests.
	leaseBatchHist  atomic.Pointer[metrics.Histogram]
	resultBatchHist atomic.Pointer[metrics.Histogram]
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
	sizeBuckets := []float64{1, 2, 4, 8, 16, 32}
	c.leaseBatchHist.Store(reg.Histogram("eoml_fleet_lease_batch_size",
		"Tasks leased to one worker per batched dispatch round-trip.", sizeBuckets))
	c.resultBatchHist.Store(reg.Histogram("eoml_fleet_result_batch_size",
		"Task results collected from one worker per batched poll round-trip.", sizeBuckets))
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
		now := c.cfg.Clock()
		w = &worker{id: id, idleSince: now}
		c.workers[id] = w
	}
	w.url = url
	w.capacity = capacity
	w.lastBeat = c.cfg.Clock()
	w.retireHinted = false
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

// Start launches the periodic sweep (heartbeat eviction, stealing,
// scale hints) until ctx is done or Close is called. Tests that use a
// fake clock skip Start and call Sweep directly.
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
// budget (requeueing their leases), dispatch, steal from stragglers,
// and emit scale hints. Start calls this periodically; tests call it
// directly after advancing a fake clock.
func (c *Coordinator) Sweep() {
	now := c.cfg.Clock()
	var hint scaleHint
	c.mu.Lock()
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.cfg.HeartbeatTimeout {
			continue
		}
		c.evictLocked(id, fmt.Errorf("worker %s evicted (heartbeat lost)", id))
	}
	c.dispatchLocked()
	c.stealLocked(now)
	hint = c.scaleHintLocked(now)
	c.mu.Unlock()
	c.applyScale(hint)
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

// dispatchLocked assigns pending tasks to the least-loaded workers
// with free capacity. When the transport supports batching, one
// round-trip carries up to LeaseBatch tasks (bounded by the worker's
// free capacity) instead of one — the RPC-overhead collapse that
// matters for small-granule workloads.
func (c *Coordinator) dispatchLocked() {
	now := c.cfg.Clock()
	bt, batching := c.cfg.Transport.(BatchTransport)
	for len(c.pending) > 0 {
		w := c.pickWorkerLocked(nil)
		if w == nil {
			return
		}
		limit := 1
		if batching {
			limit = c.cfg.LeaseBatch
			if free := w.capacity - w.inflight; free < limit {
				limit = free
			}
			// Fair-share bound: a backlog shallower than the fleet's free
			// capacity must spread across workers, not pile onto the first
			// pick — otherwise a full-batch lease serializes a small run on
			// one worker and strong scaling collapses. Deep backlogs still
			// lease whole batches.
			freeWorkers := 0
			for _, o := range c.workers {
				if o.inflight < o.capacity {
					freeWorkers++
				}
			}
			if fair := (len(c.pending) + freeWorkers - 1) / freeWorkers; fair < limit {
				limit = fair
			}
		}
		var batch []*task
		for len(c.pending) > 0 && len(batch) < limit {
			t := c.pending[0]
			c.pending = c.pending[1:]
			if t.done {
				continue
			}
			if t.ctx.Err() != nil {
				c.completeLocked(t, nil, t.ctx.Err())
				continue
			}
			batch = append(batch, t)
		}
		if len(batch) == 0 {
			return
		}
		if h := c.leaseBatchHist.Load(); h != nil {
			h.Observe(float64(len(batch)))
		}
		if batching && len(batch) > 1 {
			c.leaseBatchLocked(batch, w, now, bt)
			continue
		}
		c.leaseLocked(batch[0], w, now)
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
	w.retireHinted = false
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
	if w.inflight == 0 {
		w.idleSince = c.cfg.Clock()
	}
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

// leaseBatchLocked records one lease per batch task and launches the
// shared executeBatch goroutine.
func (c *Coordinator) leaseBatchLocked(ts []*task, w *worker, now time.Time, bt BatchTransport) {
	for _, t := range ts {
		t.attempts++
		t.leasedAt = now
		if t.assigned == nil {
			t.assigned = map[string]bool{}
		}
		t.assigned[w.id] = true
		c.leased[t.id] = t
	}
	w.inflight += len(ts)
	w.retireHinted = false
	c.wg.Add(1)
	go c.executeBatch(ts, w, bt)
}

// executeBatch runs one lease batch to completion on the worker and
// folds every task's outcome back into the coordinator state — the
// batched mirror of execute, with the same per-task case order. The
// batch runs under the coordinator's base context rather than any one
// task's: canceling a single submitter context cannot abort a shared
// round-trip, so a canceled task's lease is settled at fold time
// instead (success still wins; otherwise the cancellation is
// delivered).
func (c *Coordinator) executeBatch(ts []*task, w *worker, bt BatchTransport) {
	defer c.wg.Done()
	specs := make([]TaskSpec, len(ts))
	for i, t := range ts {
		specs[i] = TaskSpec{Function: t.fn, Args: t.args}
	}
	results, err := bt.RunBatch(c.base, w.url, specs)
	if err == nil && len(results) != len(ts) {
		err = fmt.Errorf("fleet: batch transport returned %d results for %d tasks", len(results), len(ts))
	}

	c.mu.Lock()
	w.inflight -= len(ts)
	if w.inflight == 0 {
		w.idleSince = c.cfg.Clock()
	}
	if err == nil {
		if h := c.resultBatchHist.Load(); h != nil {
			h.Observe(float64(len(results)))
		}
	}
	var evictCause error
	for i, t := range ts {
		mine := t.assigned[w.id]
		delete(t.assigned, w.id)
		if len(t.assigned) == 0 {
			delete(c.leased, t.id)
		}
		var r TaskResult
		if err != nil {
			r = TaskResult{Err: err}
		} else {
			r = results[i]
		}
		var taskErr *TaskError
		switch {
		case t.done:
			// A duplicate (steal loser) or post-eviction zombie: discard.
		case r.Err == nil:
			// Success always wins, even from a revoked lease.
			c.completeLocked(t, r.Result, nil)
		case !mine:
			// Lease revoked by eviction, which already requeued the task.
		case t.ctx.Err() != nil:
			c.completeLocked(t, nil, t.ctx.Err())
		case errors.As(r.Err, &taskErr):
			c.completeLocked(t, nil, r.Err)
		default:
			c.requeueLocked(t, r.Err)
			if !errors.Is(r.Err, compute.ErrDraining) {
				evictCause = r.Err
			}
		}
	}
	if evictCause != nil {
		// Same judgment as execute: a non-drain transport failure means
		// the worker process is likely dead. Evicted after the fold so
		// every batch member settles exactly once.
		c.evictLocked(w.id, evictCause)
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

// scaleHint is one sweep's elastic provisioning advice.
type scaleHint struct {
	out    int
	retire []string
}

// scaleHintLocked computes this sweep's hints: uncovered backlog for
// ScaleOut, long-idle workers for ScaleIn.
func (c *Coordinator) scaleHintLocked(now time.Time) scaleHint {
	if c.cfg.Scaler == nil {
		return scaleHint{}
	}
	free := 0
	for _, w := range c.workers {
		if spare := w.capacity - w.inflight; spare > 0 {
			free += spare
		}
	}
	var h scaleHint
	if uncovered := len(c.pending) - free; uncovered > 0 {
		h.out = uncovered
	}
	if c.cfg.IdleRetireAfter > 0 {
		for _, w := range c.workers {
			if w.inflight == 0 && !w.retireHinted && now.Sub(w.idleSince) > c.cfg.IdleRetireAfter {
				w.retireHinted = true
				h.retire = append(h.retire, w.id)
			}
		}
		sort.Strings(h.retire)
	}
	return h
}

// applyScale delivers hints outside the lock (the scaler may block).
func (c *Coordinator) applyScale(h scaleHint) {
	if c.cfg.Scaler == nil {
		return
	}
	if h.out > 0 {
		c.cfg.Scaler.ScaleOut(h.out)
	}
	if len(h.retire) > 0 {
		c.cfg.Scaler.ScaleIn(h.retire)
	}
}
