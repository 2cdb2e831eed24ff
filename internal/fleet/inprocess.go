package fleet

import (
	"context"
	"fmt"

	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/laads"
)

// inProcess is the Transport of a fleet whose one worker is the calling
// process: Run calls the registered task function directly, with no HTTP
// hop. No failure here can be a transport failure: a process is never
// unreachable from itself, and requeueing would evict the only worker.
type inProcess struct{ reg *compute.Registry }

// Run implements Transport.
func (t inProcess) Run(ctx context.Context, _, function string, args map[string]any) (any, error) {
	return runTask(ctx, t.reg, function, args)
}

// runTask runs one task in this process — for the in-memory transport
// and for a worker's POST /run alike: look the function up and call it
// under ctx. Every failure, an unknown function and a panic included,
// is a *TaskError, fatal for the task: the lease reached a worker, so
// requeueing it elsewhere cannot help.
func runTask(ctx context.Context, reg *compute.Registry, function string, args map[string]any) (result any, err error) {
	fn, err := reg.Lookup(function)
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
// process, running k's granule kernel — so an in-process run drives
// granules through the same Submit/Future protocol as a remote fleet.
// Like a remote worker it computes at most slots granules at once and
// leases window more, which fetch their inputs while every slot is busy;
// each archive fetch goes through client. Never Start it: sweeps,
// heartbeat eviction and stealing guard against remote failures that
// cannot happen inside one process. Close it when done.
func NewInProcess(k *Kernels, slots, window int, client *laads.Client) *Coordinator {
	reg := compute.NewRegistry()
	if err := k.Register(reg, make(chan struct{}, slots), client); err != nil {
		panic(err) // unreachable: a fresh registry holds no name to collide with
	}
	c := NewCoordinator(Config{Transport: inProcess{reg}})
	if err := c.Register("in-process", "in-process", slots+window); err != nil {
		panic(err) // unreachable: only a closed coordinator refuses
	}
	return c
}
