// Package compute is a Globus-Compute-like (FuncX) function-serving
// fabric: named functions are registered in a registry, endpoints execute
// submitted tasks on bounded worker pools, and a remote client submits
// work over HTTP and polls futures — the programming model of the
// paper's remotely executable download function. Every fleet worker
// serves its granule kernel on an endpoint.
package compute

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrDraining is returned by Submit once Stop has begun draining the
// endpoint: the task was not accepted, but the endpoint is shutting
// down cleanly rather than broken. Callers that own retry policy (the
// fleet coordinator) treat a draining rejection as requeue-able —
// resubmit the task elsewhere — where any other submission failure is
// fatal for the task. Test with errors.Is.
var ErrDraining = errors.New("endpoint draining")

// Function is a registered callable. Arguments and results must be
// JSON-serializable when the function is invoked through the HTTP
// transport.
type Function func(ctx context.Context, args map[string]any) (any, error)

// Registry maps function names to callables.
type Registry struct {
	mu  sync.RWMutex
	fns map[string]Function
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fns: map[string]Function{}}
}

// Register adds a function under a unique name.
func (r *Registry) Register(name string, fn Function) error {
	if name == "" || fn == nil {
		return fmt.Errorf("compute: register needs a name and a function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fns[name]; dup {
		return fmt.Errorf("compute: function %q already registered", name)
	}
	r.fns[name] = fn
	return nil
}

// Lookup fetches a function.
func (r *Registry) Lookup(name string) (Function, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.fns[name]
	if !ok {
		return nil, fmt.Errorf("compute: no function %q", name)
	}
	return fn, nil
}

// Names lists registered functions.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.fns))
	for k := range r.fns {
		out = append(out, k)
	}
	return out
}

// TaskState is a task lifecycle state.
type TaskState string

// Task states.
const (
	Pending   TaskState = "pending"
	Running   TaskState = "running"
	Completed TaskState = "completed"
	Errored   TaskState = "errored"
)

// Future tracks one submitted task.
type Future struct {
	ID string

	mu     sync.Mutex
	state  TaskState
	result any
	err    error
	done   chan struct{}
}

func newFuture(id string) *Future {
	return &Future{ID: id, state: Pending, done: make(chan struct{})}
}

// State returns the current lifecycle state.
func (f *Future) State() TaskState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

// Done returns a channel closed on completion.
func (f *Future) Done() <-chan struct{} { return f.done }

// Get blocks until the task completes or ctx is cancelled.
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

func (f *Future) setRunning() {
	f.mu.Lock()
	f.state = Running
	f.mu.Unlock()
}

func (f *Future) complete(result any, err error) {
	f.mu.Lock()
	if err != nil {
		f.state = Errored
		f.err = err
	} else {
		f.state = Completed
		f.result = result
	}
	f.mu.Unlock()
	close(f.done)
}

// EndpointConfig tunes a compute endpoint.
type EndpointConfig struct {
	// Workers is the pool size.
	Workers int
	// QueueDepth bounds pending tasks; 0 means 1024.
	QueueDepth int
	// TaskTimeout bounds each task's execution; 0 disables.
	TaskTimeout time.Duration
}

// Endpoint executes registry functions on a worker pool.
type Endpoint struct {
	ID  string
	cfg EndpointConfig
	reg *Registry

	mu      sync.Mutex
	queue   chan *queued
	futures map[string]*Future
	nextID  int
	active  int
	wg      sync.WaitGroup
	started bool
	stopped bool
}

type queued struct {
	fn  Function
	arg map[string]any
	fut *Future
}

// NewEndpoint builds an endpoint bound to a registry.
func NewEndpoint(id string, reg *Registry, cfg EndpointConfig) (*Endpoint, error) {
	if id == "" || reg == nil {
		return nil, fmt.Errorf("compute: endpoint needs an id and a registry")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("compute: endpoint %q needs at least 1 worker", id)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	return &Endpoint{
		ID:      id,
		cfg:     cfg,
		reg:     reg,
		queue:   make(chan *queued, cfg.QueueDepth),
		futures: map[string]*Future{},
	}, nil
}

// Start launches the worker pool.
func (e *Endpoint) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	for w := 0; w < e.cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
}

// Stop drains the queue and waits for workers to exit gracefully — the
// paper's "if no further tasks are available, the worker gracefully
// terminates".
func (e *Endpoint) Stop() {
	e.mu.Lock()
	if !e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	close(e.queue)
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Endpoint) worker() {
	defer e.wg.Done()
	for q := range e.queue {
		e.setActive(+1)
		q.fut.setRunning()
		ctx := context.Background()
		var cancel context.CancelFunc
		if e.cfg.TaskTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, e.cfg.TaskTimeout)
		}
		result, err := runSafely(ctx, q.fn, q.arg)
		if cancel != nil {
			cancel()
		}
		q.fut.complete(result, err)
		e.setActive(-1)
	}
}

// runSafely converts panics into task errors so one bad task cannot kill
// a worker.
func runSafely(ctx context.Context, fn Function, args map[string]any) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compute: task panicked: %v", r)
		}
	}()
	return fn(ctx, args)
}

func (e *Endpoint) setActive(delta int) {
	e.mu.Lock()
	e.active += delta
	e.mu.Unlock()
}

// ActiveWorkers reports how many workers are executing right now.
func (e *Endpoint) ActiveWorkers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active
}

// Submit enqueues a task for the named function and returns its future.
func (e *Endpoint) Submit(function string, args map[string]any) (*Future, error) {
	fn, err := e.reg.Lookup(function)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return nil, fmt.Errorf("compute: endpoint %q: %w", e.ID, ErrDraining)
	}
	if !e.started {
		e.mu.Unlock()
		return nil, fmt.Errorf("compute: endpoint %q is not running", e.ID)
	}
	e.nextID++
	id := fmt.Sprintf("%s-task-%06d", e.ID, e.nextID)
	fut := newFuture(id)
	e.futures[id] = fut
	// Enqueue while still holding the lock: Stop closes the queue under
	// the same lock, so the stopped check above and this non-blocking
	// send are atomic — a concurrent drain yields ErrDraining, never a
	// send on a closed channel.
	select {
	case e.queue <- &queued{fn: fn, arg: args, fut: fut}:
		e.mu.Unlock()
		return fut, nil
	default:
		delete(e.futures, id)
		e.mu.Unlock()
		return nil, fmt.Errorf("compute: endpoint %q queue full", e.ID)
	}
}

// Future looks up a previously submitted task by ID.
func (e *Endpoint) Future(id string) (*Future, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fut, ok := e.futures[id]
	if !ok {
		return nil, fmt.Errorf("compute: no task %q", id)
	}
	return fut, nil
}

// forget drops a task from the lookup table once its outcome has been
// delivered over HTTP.
func (e *Endpoint) forget(id string) {
	e.mu.Lock()
	delete(e.futures, id)
	e.mu.Unlock()
}
