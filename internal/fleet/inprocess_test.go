package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/eoml/eoml/internal/compute"
)

// TestInProcessFailuresAreTaskErrors: under the in-memory transport a
// task that errors, panics, or names no registered function fails as a
// *TaskError — fatal for that task, as over HTTP — and never as a
// transport failure, which would requeue it and evict the only worker.
func TestInProcessFailuresAreTaskErrors(t *testing.T) {
	reg := compute.NewRegistry()
	if err := reg.Register("fail", func(context.Context, map[string]any) (any, error) {
		return nil, errors.New("bad input")
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("boom", func(context.Context, map[string]any) (any, error) {
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{Transport: inProcess{reg}})
	defer c.Close()
	if err := c.Register("in-process", "in-process", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for fn, want := range map[string]string{"fail": "bad input", "boom": "panicked: kaboom", "missing": "missing"} {
		fut, err := c.Submit(ctx, fn, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = fut.Get(ctx)
		var taskErr *TaskError
		if !errors.As(err, &taskErr) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want a *TaskError containing %q", fn, err, want)
		}
	}
	if n := c.requeued.Load() + c.evicted.Load(); n != 0 {
		t.Fatalf("%d requeues/evictions, want none", n)
	}
	if w := c.Workers(); len(w) != 1 || w[0].InFlight != 0 {
		t.Fatalf("workers after failures: %+v", w)
	}
}
