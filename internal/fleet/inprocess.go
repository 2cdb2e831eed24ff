package fleet

import (
	"context"
	"fmt"

	"github.com/eoml/eoml/internal/compute"
)

// inProcess is the Transport of a fleet whose one worker is the calling
// process: Run calls the registered task function directly, with no HTTP
// hop and no result polling. It does not implement BatchTransport —
// lease batching amortises round trips, and a direct call makes none.
type inProcess struct{ reg *compute.Registry }

// Run reports every failure, panics included, as a *TaskError, exactly
// as the HTTP transport reports a task that failed on its worker. No
// failure here can be a transport failure: a process is never
// unreachable from itself, and requeueing would evict the only worker.
func (t inProcess) Run(ctx context.Context, _, function string, args map[string]any) (result any, err error) {
	fn, err := t.reg.Lookup(function)
	if err != nil {
		return nil, &TaskError{Msg: err.Error()}
	}
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, &TaskError{Msg: fmt.Sprintf("fleet: task panicked: %v", r)}
		}
	}()
	if result, err = fn(ctx, args); err != nil {
		return nil, &TaskError{Msg: err.Error()}
	}
	return result, nil
}

// NewInProcess returns a coordinator with one registered worker — this
// process, running k's granule kernel on up to slots leases at once —
// so an in-process run drives granules through the same Submit/Future
// protocol as a remote fleet. Never Start it: sweeps, heartbeat eviction
// and stealing guard against remote failures that cannot happen inside
// one process. Close it when done.
func NewInProcess(k *Kernels, slots int) *Coordinator {
	reg := compute.NewRegistry()
	if err := k.Register(reg); err != nil {
		panic(err) // unreachable: a fresh registry holds no name to collide with
	}
	c := NewCoordinator(Config{Transport: inProcess{reg}})
	if err := c.Register("in-process", "in-process", slots); err != nil {
		panic(err) // unreachable: only a closed coordinator refuses
	}
	return c
}
