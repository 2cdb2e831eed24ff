package compute

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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
	if fut.State() != Completed {
		t.Fatalf("state = %v", fut.State())
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
	if fut.State() != Errored {
		t.Fatalf("state = %v", fut.State())
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
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 1, QueueDepth: 2})
	ep.Start()
	defer ep.Stop()
	overflowed := false
	for i := 0; i < 10; i++ {
		if _, err := ep.Submit("sleep", map[string]any{"ms": float64(50)}); err != nil {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("queue depth 2 never overflowed")
	}
}

func TestEndpointTaskTimeout(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 1, TaskTimeout: 20 * time.Millisecond})
	ep.Start()
	defer ep.Stop()
	fut, err := ep.Submit("sleep", map[string]any{"ms": float64(5000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(context.Background()); err == nil {
		t.Fatal("timeout not enforced")
	}
}

func TestHTTPTransportRoundTrip(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("remote-dtn", reg, EndpointConfig{Workers: 2})
	ep.Start()
	defer ep.Stop()
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()

	client := NewRemoteEndpoint(srv.URL)
	ctx := context.Background()

	name, _, fns, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if name != "remote-dtn" || len(fns) != 4 {
		t.Fatalf("status %q %v", name, fns)
	}

	fut, err := client.Submit(ctx, "add", map[string]any{"a": 40, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 42 {
		t.Fatalf("remote result %v", v)
	}
}

func TestHTTPTransportErrors(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("remote", reg, EndpointConfig{Workers: 1})
	ep.Start()
	defer ep.Stop()
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	client := NewRemoteEndpoint(srv.URL)
	ctx := context.Background()

	if _, err := client.Submit(ctx, "nonexistent", nil); err == nil {
		t.Error("unknown function accepted")
	}
	fut, err := client.Submit(ctx, "boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(ctx); err == nil {
		t.Error("remote task error not propagated")
	}
	bogus := &RemoteFuture{TaskID: "nope", ep: client}
	if _, err := bogus.Poll(ctx); err == nil {
		t.Error("unknown remote task accepted")
	}
}

// TestSubmitDrainingTyped pins the typed drain rejection: after Stop, a
// local Submit fails with ErrDraining (errors.Is), and the same error
// survives the HTTP hop as a 503 so a remote submitter can distinguish
// requeue-able rejections from fatal ones.
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
	ts := httptest.NewServer(ep.Handler())
	defer ts.Close()
	ep.Stop()

	if _, err := ep.Submit("add", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Stop = %v, want ErrDraining", err)
	}
	remote := NewRemoteEndpoint(ts.URL)
	if _, err := remote.Submit(context.Background(), "add", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("remote Submit after Stop = %v, want ErrDraining across the HTTP hop", err)
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

// TestEndpointForgetsDeliveredTasks: once GET /tasks/{id} has answered
// with a settled state the endpoint drops the task, so a long-lived
// worker holds no results it already delivered, and a re-poll of that
// ID is a 404.
func TestEndpointForgetsDeliveredTasks(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 2})
	ep.Start()
	defer ep.Stop()
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()

	remote := NewRemoteEndpoint(srv.URL)
	remote.PollInterval = time.Millisecond
	ctx := context.Background()
	var ids []string
	for i := 0; i < 8; i++ {
		fn := "add"
		if i%4 == 3 {
			fn = "boom" // errored tasks are forgotten too
		}
		fut, err := remote.Submit(ctx, fn, map[string]any{"a": float64(i), "b": float64(1)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := fut.Get(ctx)
		if fn == "add" && (err != nil || v.(float64) != float64(i+1)) {
			t.Fatalf("task %d = %v, %v", i, v, err)
		}
		if fn == "boom" && err == nil {
			t.Fatalf("task %d: boom succeeded", i)
		}
		ids = append(ids, fut.TaskID)
	}
	ep.mu.Lock()
	held := len(ep.futures)
	ep.mu.Unlock()
	if held != 0 {
		t.Fatalf("endpoint still holds %d delivered tasks", held)
	}
	for _, id := range ids {
		resp, err := http.Get(srv.URL + "/tasks/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("re-poll of %s = %s, want 404", id, resp.Status)
		}
	}
}
