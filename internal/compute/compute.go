// Package compute is a Globus-Compute-like (FuncX) function registry:
// named functions are registered once and invoked by name — the
// programming model of the paper's remotely executable download
// function. Every fleet worker serves its registry over HTTP
// (internal/fleet), one request per invocation. Endpoint runs registry
// functions on a bounded in-process pool.
package compute

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrDraining is returned by Submit once Stop has begun draining the
// endpoint, and by a fleet lease answered 503: the task was not
// accepted, but its executor is unavailable for now rather than broken.
// Callers that own retry policy (the fleet coordinator) treat a
// draining rejection as requeue-able — resubmit the task elsewhere —
// where any other submission failure is fatal for the task. Test with
// errors.Is.
var ErrDraining = errors.New("endpoint draining")

// Function is a registered callable. Arguments and results must be
// JSON-serializable when the function is invoked on a remote worker.
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

// Future tracks one submitted task.
type Future struct {
	result any
	err    error
	done   chan struct{}
}

// Done returns a channel closed on completion.
func (f *Future) Done() <-chan struct{} { return f.done }

// Get blocks until the task completes or ctx is cancelled.
func (f *Future) Get(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.result, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// EndpointConfig tunes a compute endpoint.
type EndpointConfig struct {
	// Workers is the pool size.
	Workers int
}

// queueDepth bounds an endpoint's pending tasks.
const queueDepth = 1024

// Endpoint executes registry functions on a worker pool.
type Endpoint struct {
	ID  string
	cfg EndpointConfig
	reg *Registry

	mu      sync.Mutex
	queue   chan *queued
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
	return &Endpoint{
		ID:    id,
		cfg:   cfg,
		reg:   reg,
		queue: make(chan *queued, queueDepth),
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
		q.fut.result, q.fut.err = runSafely(context.Background(), q.fn, q.arg)
		close(q.fut.done)
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

// Submit enqueues a task for the named function and returns its future.
func (e *Endpoint) Submit(function string, args map[string]any) (*Future, error) {
	fn, err := e.reg.Lookup(function)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil, fmt.Errorf("compute: endpoint %q: %w", e.ID, ErrDraining)
	}
	if !e.started {
		return nil, fmt.Errorf("compute: endpoint %q is not running", e.ID)
	}
	fut := &Future{done: make(chan struct{})}
	// Enqueue while still holding the lock: Stop closes the queue under
	// the same lock, so the stopped check above and this non-blocking
	// send are atomic — a concurrent drain yields ErrDraining, never a
	// send on a closed channel.
	select {
	case e.queue <- &queued{fn: fn, arg: args, fut: fut}:
		return fut, nil
	default:
		return nil, fmt.Errorf("compute: endpoint %q queue full", e.ID)
	}
}
