package compute

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func registryWithMath(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register("add", func(ctx context.Context, args map[string]any) (any, error) {
		a, _ := args["a"].(float64)
		b, _ := args["b"].(float64)
		return a + b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("boom", func(ctx context.Context, args map[string]any) (any, error) {
		return nil, fmt.Errorf("deliberate failure")
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("panic", func(ctx context.Context, args map[string]any) (any, error) {
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("sleep", func(ctx context.Context, args map[string]any) (any, error) {
		d, _ := args["ms"].(float64)
		select {
		case <-time.After(time.Duration(d) * time.Millisecond):
			return "slept", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("", func(ctx context.Context, a map[string]any) (any, error) { return nil, nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Register("x", nil); err == nil {
		t.Error("nil function accepted")
	}
	if err := reg.Register("x", func(ctx context.Context, a map[string]any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("x", func(ctx context.Context, a map[string]any) (any, error) { return nil, nil }); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Error("missing lookup accepted")
	}
}

func TestEndpointExecutesTasks(t *testing.T) {
	reg := registryWithMath(t)
	ep, err := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ep.Start()
	defer ep.Stop()

	fut, err := ep.Submit("add", map[string]any{"a": float64(2), "b": float64(3)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 5 {
		t.Fatalf("result = %v", v)
	}
}

func TestEndpointTaskErrorAndPanic(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 1})
	ep.Start()
	defer ep.Stop()

	fut, err := ep.Submit("boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(context.Background()); err == nil {
		t.Fatal("task error not propagated")
	}
	// A panicking task must not kill the worker.
	fut2, err := ep.Submit("panic", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut2.Get(context.Background()); err == nil {
		t.Fatal("panic not converted to error")
	}
	fut3, err := ep.Submit("add", map[string]any{"a": float64(1), "b": float64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := fut3.Get(context.Background()); err != nil || v.(float64) != 2 {
		t.Fatalf("worker dead after panic: %v %v", v, err)
	}
}

func TestEndpointBoundedConcurrency(t *testing.T) {
	reg := NewRegistry()
	var now, peak int64
	var mu sync.Mutex
	if err := reg.Register("probe", func(ctx context.Context, args map[string]any) (any, error) {
		mu.Lock()
		now++
		if now > peak {
			peak = now
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		now--
		mu.Unlock()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 4})
	ep.Start()
	defer ep.Stop()
	futs := make([]*Future, 20)
	for i := range futs {
		f, err := ep.Submit("probe", nil)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for _, f := range futs {
		if _, err := f.Get(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 4 {
		t.Fatalf("peak concurrency %d exceeds 4 workers", peak)
	}
	if peak < 2 {
		t.Fatalf("peak concurrency %d: pool not parallel", peak)
	}
}

func TestEndpointGracefulStopDrainsQueue(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 2})
	ep.Start()
	var futs []*Future
	for i := 0; i < 10; i++ {
		f, err := ep.Submit("sleep", map[string]any{"ms": float64(5)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	ep.Stop() // must wait for all queued tasks
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("task %d not finished after Stop", i)
		}
	}
	if _, err := ep.Submit("add", nil); err == nil {
		t.Fatal("submit after stop accepted")
	}
}

func TestEndpointQueueFull(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	if err := reg.Register("block", func(ctx context.Context, args map[string]any) (any, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 1})
	ep.Start()
	defer ep.Stop()
	defer close(release) // runs first: Stop drains the queue
	for i := 0; i <= queueDepth+1; i++ {
		if _, err := ep.Submit("block", nil); err != nil {
			return
		}
	}
	t.Fatalf("queue of %d never overflowed", queueDepth)
}

// TestSubmitDrainingTyped pins the typed drain rejection: after Stop,
// Submit fails with ErrDraining (errors.Is), so a submitter can tell a
// requeue-able rejection from a fatal one.
func TestSubmitDrainingTyped(t *testing.T) {
	reg := registryWithMath(t)
	ep, err := NewEndpoint("drain", reg, EndpointConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Never-started endpoints are "not running", not draining.
	if _, err := ep.Submit("add", nil); errors.Is(err, ErrDraining) {
		t.Fatalf("unstarted Submit = %v, want a non-draining error", err)
	}

	ep.Start()
	ep.Stop()

	if _, err := ep.Submit("add", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Stop = %v, want ErrDraining", err)
	}
}

// TestSubmitStopRace hammers Submit against a concurrent Stop: every
// submission must either be accepted (and its future complete) or fail
// with ErrDraining — never panic on the closed queue.
func TestSubmitStopRace(t *testing.T) {
	reg := registryWithMath(t)
	ep, err := NewEndpoint("race", reg, EndpointConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ep.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				fut, err := ep.Submit("add", map[string]any{"a": 1.0, "b": 2.0})
				if err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("Submit = %v, want nil or ErrDraining", err)
					}
					return
				}
				if _, err := fut.Get(context.Background()); err != nil {
					t.Errorf("accepted task errored: %v", err)
				}
			}
		}()
	}
	ep.Stop()
	wg.Wait()
}
