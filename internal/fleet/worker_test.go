package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/compute"
	"github.com/eoml/eoml/internal/metrics"
)

// newTestControlPlane serves a coordinator's membership API over a real
// listener and returns both.
func newTestControlPlane(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(cfg)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c, srv
}

// TestWorkerLifecycle: a real worker registers over HTTP, executes a
// leased task end to end (submit → poll → result), and deregisters on
// Stop.
func TestWorkerLifecycle(t *testing.T) {
	c, srv := newTestControlPlane(t, Config{})

	w, err := NewWorker(WorkerConfig{
		ID:             "it-worker",
		CoordinatorURL: srv.URL,
		Slots:          2,
		Register: func(reg *compute.Registry) error {
			return reg.Register("test.double", func(ctx context.Context, args map[string]any) (any, error) {
				n, _ := args["n"].(float64) // JSON hop
				return n * 2, nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	ws := c.Workers()
	if len(ws) != 1 || ws[0].ID != "it-worker" || ws[0].Capacity != 2 {
		t.Fatalf("registered workers = %+v", ws)
	}
	if ws[0].URL != w.URL() {
		t.Fatalf("registered URL %q != worker URL %q", ws[0].URL, w.URL())
	}

	fut, err := c.Submit(context.Background(), "test.double", map[string]any{"n": 21})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 42 {
		t.Fatalf("result = %v, want 42", v)
	}

	w.Stop()
	if ws := c.Workers(); len(ws) != 0 {
		t.Fatalf("workers after Stop = %+v, want none", ws)
	}
}

// TestWorkerServesGranuleKernel: the one granule task function — and no
// other standard kernel — is registered on every worker endpoint.
func TestWorkerServesGranuleKernel(t *testing.T) {
	_, srv := newTestControlPlane(t, Config{})
	w, err := NewWorker(WorkerConfig{ID: "k", CoordinatorURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	remote := compute.NewRemoteEndpoint(w.URL())
	_, _, fns, err := remote.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 1 || fns[0] != GranuleFunction {
		t.Fatalf("worker functions = %v, want exactly [%s]", fns, GranuleFunction)
	}
}

// TestClientHeartbeatMatchesStatusNotText: only a 404 *response* means
// "evicted, re-register". A refused connection to a coordinator whose
// port happens to contain "404" is an outage, and must not be read as an
// eviction from the error text.
func TestClientHeartbeatMatchesStatusNotText(t *testing.T) {
	_, srv := newTestControlPlane(t, Config{})
	var unknown *ErrUnknownWorker
	if err := NewClient(srv.URL).Heartbeat(context.Background(), "ghost"); !errors.As(err, &unknown) {
		t.Fatalf("heartbeat answered 404 but the error is %v, want *ErrUnknownWorker", err)
	}

	// A dead listener on a port containing "404": bind it to learn the
	// port is free, then close it so the dial is refused.
	var dead string
	for _, port := range []string{"14046", "40431", "24046", "34046", "40441"} {
		ln, err := net.Listen("tcp", "127.0.0.1:"+port)
		if err != nil {
			continue
		}
		dead = "http://" + ln.Addr().String()
		ln.Close()
		break
	}
	if dead == "" {
		t.Skip("no free port containing 404 on this host")
	}
	err := NewClient(dead).Heartbeat(context.Background(), "w1")
	if err == nil {
		t.Fatal("heartbeat to a dead listener succeeded")
	}
	if errors.As(err, &unknown) {
		t.Fatalf("refused connection to %s misread as eviction: %v", dead, err)
	}
}

// TestWorkerKilledMidTask is the chaos case: a worker dies (listener
// torn down, no drain) while holding a lease. The coordinator must
// requeue the lease onto the surviving worker and deliver the result
// exactly once.
func TestWorkerKilledMidTask(t *testing.T) {
	c, srv := newTestControlPlane(t, Config{
		HeartbeatTimeout: time.Hour, // eviction must come from the failed transport, not heartbeats
	})
	reg := metrics.NewRegistry()
	c.Instrument(reg)

	var mu sync.Mutex
	executions := 0
	victimGotTask := make(chan struct{})
	victimRelease := make(chan struct{})
	// makeFn builds the chaos function: on the victim the task reports
	// it started and then hangs (a crashed process never answers); on
	// the survivor it completes.
	makeFn := func(victim bool) func(reg *compute.Registry) error {
		return func(reg *compute.Registry) error {
			return reg.Register("test.chaos", func(ctx context.Context, args map[string]any) (any, error) {
				mu.Lock()
				executions++
				mu.Unlock()
				if victim {
					close(victimGotTask)
					<-victimRelease // hung until test teardown
					return nil, fmt.Errorf("victim died")
				}
				return "survivor", nil
			})
		}
	}

	victim, err := NewWorker(WorkerConfig{ID: "a-victim", CoordinatorURL: srv.URL, Register: makeFn(true)})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	fut, err := c.Submit(context.Background(), "test.chaos", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-victimGotTask // the lease is executing on the victim

	survivor, err := NewWorker(WorkerConfig{ID: "b-survivor", CoordinatorURL: srv.URL, Register: makeFn(false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer survivor.Stop()

	// Kill the victim: close its listener without drain, as a crashed
	// process would. The coordinator's next poll fails, evicts the
	// victim, and requeues the lease.
	_ = victim.srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := fut.Get(ctx)
	if err != nil {
		t.Fatalf("task after worker death: %v", err)
	}
	if v != "survivor" {
		t.Fatalf("result = %v, want survivor's", v)
	}

	if got := counterValue(t, reg, "eoml_fleet_tasks_completed_total"); got != 1 {
		t.Fatalf("completed = %v, want 1 (exactly-once)", got)
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_requeued_total"); got < 1 {
		t.Fatalf("requeued = %v, want >= 1", got)
	}
	if got := counterValue(t, reg, "eoml_fleet_workers_evicted_total"); got != 1 {
		t.Fatalf("evicted = %v, want 1", got)
	}
	mu.Lock()
	if executions != 2 {
		mu.Unlock()
		t.Fatalf("task executed %d times, want 2 (victim + survivor)", executions)
	}
	mu.Unlock()

	// Teardown: unblock the hung lease so the victim's pool can drain.
	close(victimRelease)
	victim.Stop()
}

// TestWorkerDrainRejectsNewTasks: once Stop begins, direct submissions
// to the endpoint answer with the typed drain error over HTTP.
func TestWorkerDrainRejectsNewTasks(t *testing.T) {
	_, srv := newTestControlPlane(t, Config{})
	w, err := NewWorker(WorkerConfig{ID: "drainer", CoordinatorURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	url := w.URL()
	w.Stop()

	// The HTTP listener is down after Stop; a draining-window submit is
	// exercised at the endpoint layer instead (the HTTP mapping itself
	// is pinned in internal/compute's tests).
	_, err = w.ep.Submit("test.anything", nil)
	if err == nil {
		t.Fatalf("submit to %s after Stop succeeded", url)
	}
}

// TestWorkerJoinsBacklogSlotsFreePerTask: a worker registers while a
// backlog is waiting, and the first task it takes blocks. Every other
// task must still resolve while the slow one runs: each lease holds one
// slot and delivers its own result, so a slot that finishes takes the
// next pending task at once instead of waiting for its neighbours.
func TestWorkerJoinsBacklogSlotsFreePerTask(t *testing.T) {
	c, srv := newTestControlPlane(t, Config{HeartbeatTimeout: time.Hour})
	release := make(chan struct{})
	var once sync.Once
	releaseSlow := func() { once.Do(func() { close(release) }) }
	w, err := NewWorker(WorkerConfig{
		ID:             "joiner",
		CoordinatorURL: srv.URL,
		Slots:          3,
		Register: func(reg *compute.Registry) error {
			if err := reg.Register("test.slow", func(ctx context.Context, _ map[string]any) (any, error) {
				<-release
				return "slow", nil
			}); err != nil {
				return err
			}
			return reg.Register("test.fast", func(ctx context.Context, args map[string]any) (any, error) {
				return args["n"], nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	slow, err := c.Submit(ctx, "test.slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	fast := make([]*Future, 6) // twice the worker's capacity
	for i := range fast {
		if fast[i], err = c.Submit(ctx, "test.fast", map[string]any{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	defer releaseSlow() // runs first: Stop drains the endpoint's pool

	wait, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for i, f := range fast {
		v, err := f.Get(wait)
		if err != nil {
			t.Fatalf("fast task %d unresolved while the slow task runs: %v", i, err)
		}
		if v.(float64) != float64(i) { // JSON hop
			t.Fatalf("fast task %d = %v", i, v)
		}
	}
	select {
	case <-slow.Done():
		t.Fatal("slow task resolved before it was released")
	default:
	}
	releaseSlow()
	if v, err := slow.Get(wait); err != nil || v != "slow" {
		t.Fatalf("slow task = %v, %v", v, err)
	}
}

// ComputeGate exposes a worker's compute slots to the external tests,
// which hold one to show that leases keep fetching while every slot is
// busy.
func (w *Worker) ComputeGate() chan struct{} { return w.gate }
