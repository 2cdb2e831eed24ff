// Package pipereg is the workflow control plane's run registry: every
// run submitted to the HTTP run API (internal/serve) is tracked here
// from pending through running to a terminal state, with a bound on how
// many execute at once and how many finished runs stay inspectable.
package pipereg

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// RunState is the lifecycle position of a submitted run.
type RunState string

// Run lifecycle: Pending (queued behind the concurrency limit) →
// Running → one of the three terminal states. Cancel before a slot is
// acquired goes straight from Pending to Canceled.
const (
	StatePending   RunState = "pending"
	StateRunning   RunState = "running"
	StateSucceeded RunState = "succeeded"
	StateFailed    RunState = "failed"
	StateCanceled  RunState = "canceled"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// RunRecord is the registry's public view of one submitted run.
type RunRecord struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant,omitempty"`
	State     RunState  `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Error     string    `json:"error,omitempty"`
	// Result is whatever the run function returned (nil until terminal;
	// the control plane stores the *core.Report here).
	Result any `json:"-"`
	// Meta is the opaque per-run payload the submitter attached — the
	// control plane stores its *core.Run here so handlers can reach the
	// run's live metric registry and health tracker. Held only while the
	// record is retained; eviction drops it so per-run registries become
	// garbage-collectable.
	Meta any `json:"-"`
}

// RunFunc is the work a submitted run executes. The context is canceled
// by RunRegistry.Cancel and by registry Close.
type RunFunc func(ctx context.Context) (any, error)

// runEntry is the registry's internal run state.
type runEntry struct {
	rec    RunRecord
	cancel context.CancelFunc
	done   chan struct{} // closed when the run reaches a terminal state
	seq    int           // submission order, for stable listing/eviction
}

// RunRegistry tracks the lifecycle of concurrently executing workflow
// runs: submit returns an ID immediately, a bounded semaphore limits
// how many execute at once (the rest queue as pending), Cancel aborts a
// pending or running run through its stored CancelFunc, and terminal
// runs are retained for inspection up to a bound — the oldest are
// evicted so a long-lived control plane does not accumulate every
// registry and report it ever produced.
type RunRegistry struct {
	mu sync.Mutex
	// runs maps run ID to its entry. guarded by mu
	runs map[string]*runEntry
	// nextSeq orders submissions for listing and eviction. guarded by mu
	nextSeq int
	sem     chan struct{}
	retain  int
}

// NewRunRegistry builds a run registry executing at most maxConcurrent
// runs at once (minimum 1) and retaining at most retainTerminal
// finished runs (minimum 1 — the run just finished is always
// inspectable).
func NewRunRegistry(maxConcurrent, retainTerminal int) *RunRegistry {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if retainTerminal < 1 {
		retainTerminal = 1
	}
	return &RunRegistry{
		runs:   map[string]*runEntry{},
		sem:    make(chan struct{}, maxConcurrent),
		retain: retainTerminal,
	}
}

// Submit registers a run and starts its lifecycle goroutine. The
// returned ID is immediately resolvable via Get. meta travels on the
// record (see RunRecord.Meta); fn runs once a concurrency slot frees
// up, under a context canceled by Cancel.
func (r *RunRegistry) Submit(tenant string, meta any, fn RunFunc) string {
	id, _ := r.SubmitBuild(tenant, func(string) (any, RunFunc, error) { return meta, fn, nil })
	return id
}

// SubmitBuild is Submit for callers that need the run ID while
// constructing the run (the control plane labels each run's metric
// series with the registry-assigned ID). The ID is allocated first and
// passed to build; if build fails nothing is registered and the error
// is returned.
func (r *RunRegistry) SubmitBuild(tenant string, build func(id string) (meta any, fn RunFunc, err error)) (string, error) {
	r.mu.Lock()
	r.nextSeq++
	seq := r.nextSeq
	id := fmt.Sprintf("run-%06d", seq)
	r.mu.Unlock()

	meta, fn, err := build(id)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &runEntry{
		rec: RunRecord{
			ID:        id,
			Tenant:    tenant,
			State:     StatePending,
			Submitted: time.Now(),
			Meta:      meta,
		},
		cancel: cancel,
		done:   make(chan struct{}),
		seq:    seq,
	}
	r.mu.Lock()
	r.runs[id] = e
	r.mu.Unlock()

	go func() {
		defer close(e.done)
		defer cancel()
		// Queue for a slot; cancellation while queued is a pending→canceled
		// transition that never runs fn.
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			r.finish(e, nil, ctx.Err())
			return
		}
		defer func() { <-r.sem }()
		r.mu.Lock()
		if e.rec.State != StatePending { // canceled between select and here
			r.mu.Unlock()
			return
		}
		e.rec.State = StateRunning
		e.rec.Started = time.Now()
		r.mu.Unlock()
		result, err := fn(ctx)
		if err == nil && ctx.Err() != nil {
			err = ctx.Err() // a canceled run that returned nil still counts canceled
		}
		r.finish(e, result, err)
	}()
	return id, nil
}

// finish records the terminal state and evicts over-retention runs.
func (r *RunRegistry) finish(e *runEntry, result any, err error) {
	r.mu.Lock()
	if e.rec.State.Terminal() {
		r.mu.Unlock()
		return
	}
	e.rec.Finished = time.Now()
	e.rec.Result = result
	switch {
	case err == nil:
		e.rec.State = StateSucceeded
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.rec.State = StateCanceled
		e.rec.Error = err.Error()
	default:
		e.rec.State = StateFailed
		e.rec.Error = err.Error()
	}
	r.evictLocked()
	r.mu.Unlock()
}

// evictLocked drops the oldest terminal runs beyond the retention
// bound. Caller holds r.mu. Dropping the map entry releases the
// record's Meta (the control plane's per-run registry), which is the
// point: a long-lived engine must not pin every finished run's metrics.
func (r *RunRegistry) evictLocked() {
	var terminal []*runEntry
	for _, e := range r.runs {
		if e.rec.State.Terminal() {
			terminal = append(terminal, e)
		}
	}
	if len(terminal) <= r.retain {
		return
	}
	sort.Slice(terminal, func(i, j int) bool { return terminal[i].seq < terminal[j].seq })
	for _, e := range terminal[:len(terminal)-r.retain] {
		delete(r.runs, e.rec.ID)
	}
}

// Get returns a copy of the run's record.
func (r *RunRegistry) Get(id string) (RunRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.runs[id]
	if !ok {
		return RunRecord{}, false
	}
	return e.rec, true
}

// List returns every retained record in submission order.
func (r *RunRegistry) List() []RunRecord {
	r.mu.Lock()
	entries := make([]*runEntry, 0, len(r.runs))
	for _, e := range r.runs {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]RunRecord, len(entries))
	for i, e := range entries {
		out[i] = e.rec
	}
	r.mu.Unlock()
	return out
}

// Cancel aborts a pending or running run via its stored CancelFunc. It
// returns false when the run is unknown or already terminal. Callers
// observe the eventual canceled state via Get or Wait — cancellation is
// asynchronous, like the POSIX signal it models.
func (r *RunRegistry) Cancel(id string) bool {
	r.mu.Lock()
	e, ok := r.runs[id]
	if !ok || e.rec.State.Terminal() {
		r.mu.Unlock()
		return false
	}
	cancel := e.cancel
	r.mu.Unlock()
	cancel()
	return true
}

// Wait blocks until the run reaches a terminal state or ctx expires,
// returning the final record.
func (r *RunRegistry) Wait(ctx context.Context, id string) (RunRecord, error) {
	r.mu.Lock()
	e, ok := r.runs[id]
	r.mu.Unlock()
	if !ok {
		return RunRecord{}, fmt.Errorf("pipereg: no run %q", id)
	}
	select {
	case <-e.done:
		r.mu.Lock()
		rec := e.rec
		r.mu.Unlock()
		return rec, nil
	case <-ctx.Done():
		return RunRecord{}, ctx.Err()
	}
}
