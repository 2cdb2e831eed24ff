package flows

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ActionProvider executes one Action state. Parameters arrive with all
// "$.x" references already substituted.
type ActionProvider func(ctx context.Context, params map[string]any) (any, error)

// RunStatus is the lifecycle state of a flow run.
type RunStatus string

// Run states.
const (
	RunActive    RunStatus = "ACTIVE"
	RunSucceeded RunStatus = "SUCCEEDED"
	RunFailed    RunStatus = "FAILED"
)

// EventKind classifies log events.
type EventKind string

// Event kinds.
const (
	EventStateEntered EventKind = "state_entered"
	EventStateExited  EventKind = "state_exited"
	EventRunStarted   EventKind = "run_started"
	EventRunSucceeded EventKind = "run_succeeded"
	EventRunFailed    EventKind = "run_failed"
)

// Event is one entry of a run's event log.
type Event struct {
	Time   time.Time
	Kind   EventKind
	State  string
	Detail string
}

// Run is one asynchronous flow execution.
type Run struct {
	ID string

	mu     sync.Mutex
	status RunStatus
	events []Event
	output map[string]any
	err    error
	done   chan struct{}
}

// Status snapshots the run status.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Events copies the event log.
func (r *Run) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Wait blocks until the run completes and returns the final flow
// document.
func (r *Run) Wait(ctx context.Context) (map[string]any, error) {
	select {
	case <-r.done:
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.output, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (r *Run) log(kind EventKind, state, detail string) {
	r.mu.Lock()
	r.events = append(r.events, Event{Time: time.Now(), Kind: kind, State: state, Detail: detail})
	r.mu.Unlock()
}

// EngineConfig tunes the engine.
type EngineConfig struct {
	// MaxTransitions bounds a run, guarding against definition cycles.
	MaxTransitions int
}

// Engine executes flow definitions against registered action providers.
type Engine struct {
	cfg EngineConfig

	mu        sync.Mutex
	providers map[string]ActionProvider
	nextRun   int
}

// NewEngine builds an engine.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.MaxTransitions <= 0 {
		cfg.MaxTransitions = 10000
	}
	return &Engine{cfg: cfg, providers: map[string]ActionProvider{}}
}

// RegisterProvider names an action provider.
func (e *Engine) RegisterProvider(name string, p ActionProvider) error {
	if name == "" || p == nil {
		return fmt.Errorf("flows: provider needs a name and a function")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.providers[name]; dup {
		return fmt.Errorf("flows: provider %q already registered", name)
	}
	e.providers[name] = p
	return nil
}

// Start validates and launches a run asynchronously. The engine keeps
// no reference to the run: the caller's handle is the only one.
func (e *Engine) Start(ctx context.Context, def *Definition, input map[string]any) (*Run, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	// Check providers up front so a bad definition fails fast.
	e.mu.Lock()
	for name, st := range def.States {
		if st.Type == TypeAction {
			if _, ok := e.providers[st.ActionProvider]; !ok {
				e.mu.Unlock()
				return nil, fmt.Errorf("flows: state %q uses unregistered provider %q", name, st.ActionProvider)
			}
		}
	}
	e.nextRun++
	run := &Run{
		ID:     fmt.Sprintf("run-%06d", e.nextRun),
		status: RunActive,
		done:   make(chan struct{}),
	}
	e.mu.Unlock()

	doc := map[string]any{}
	for k, v := range input {
		doc[k] = v
	}
	go e.execute(ctx, def, run, doc)
	return run, nil
}

func (e *Engine) execute(ctx context.Context, def *Definition, run *Run, doc map[string]any) {
	run.log(EventRunStarted, def.StartAt, "")
	finish := func(status RunStatus, err error) {
		run.mu.Lock()
		run.status = status
		run.output = doc
		run.err = err
		run.mu.Unlock()
		if status == RunSucceeded {
			run.log(EventRunSucceeded, "", "")
		} else {
			run.log(EventRunFailed, "", fmt.Sprint(err))
		}
		close(run.done)
	}

	current := def.StartAt
	for transitions := 0; ; transitions++ {
		if transitions >= e.cfg.MaxTransitions {
			finish(RunFailed, fmt.Errorf("flows: exceeded %d transitions (cycle?)", e.cfg.MaxTransitions))
			return
		}
		if ctx.Err() != nil {
			finish(RunFailed, ctx.Err())
			return
		}
		st := def.States[current]
		run.log(EventStateEntered, current, st.Type)

		if st.Type == TypeSucceed {
			run.log(EventStateExited, current, "")
			finish(RunSucceeded, nil)
			return
		}
		// An Action state: Validate admits no other type.
		e.mu.Lock()
		provider := e.providers[st.ActionProvider]
		e.mu.Unlock()
		params, err := substituteParams(st.Parameters, doc)
		if err != nil {
			finish(RunFailed, fmt.Errorf("flows: state %q: %w", current, err))
			return
		}
		result, err := runProvider(ctx, provider, params)
		if err != nil {
			finish(RunFailed, fmt.Errorf("flows: state %q: %w", current, err))
			return
		}
		if st.ResultPath != "" {
			if err := setPath(doc, st.ResultPath, result); err != nil {
				finish(RunFailed, fmt.Errorf("flows: state %q: %w", current, err))
				return
			}
		}
		run.log(EventStateExited, current, "")
		if st.End {
			finish(RunSucceeded, nil)
			return
		}
		current = st.Next
	}
}

func runProvider(ctx context.Context, p ActionProvider, params map[string]any) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flows: provider panicked: %v", r)
		}
	}()
	return p(ctx, params)
}
