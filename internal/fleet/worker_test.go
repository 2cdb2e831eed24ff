package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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
// leased task end to end (one POST /run, answered with the result), and
// deregisters on Stop.
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
// other standard kernel — is registered on every worker.
func TestWorkerServesGranuleKernel(t *testing.T) {
	w, err := NewWorker(WorkerConfig{ID: "k", CoordinatorURL: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	if fns := w.reg.Names(); len(fns) != 1 || fns[0] != GranuleFunction {
		t.Fatalf("worker functions = %v, want exactly [%s]", fns, GranuleFunction)
	}
}

// startTestWorker starts a worker serving register's functions against
// the control plane at url, stopped at test cleanup.
func startTestWorker(t *testing.T, cfg WorkerConfig) *Worker {
	t.Helper()
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

// TestWorkerFailuresAreTaskErrors: over HTTP, as in-process, a task that
// errors, panics, or names a function the worker does not serve fails
// as a *TaskError, and so does a result JSON cannot carry — fatal for that task alone. None of them is a
// transport failure, which would requeue the task and evict the healthy
// worker that answered.
func TestWorkerFailuresAreTaskErrors(t *testing.T) {
	c, srv := newTestControlPlane(t, Config{HeartbeatTimeout: time.Hour})
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	for _, id := range []string{"w1", "w2", "w3"} {
		startTestWorker(t, WorkerConfig{ID: id, CoordinatorURL: srv.URL, Register: func(reg *compute.Registry) error {
			if err := reg.Register("test.fail", func(context.Context, map[string]any) (any, error) {
				return nil, errors.New("bad input")
			}); err != nil {
				return err
			}
			if err := reg.Register("test.nan", func(context.Context, map[string]any) (any, error) {
				return math.NaN(), nil
			}); err != nil {
				return err
			}
			return reg.Register("test.panic", func(context.Context, map[string]any) (any, error) {
				panic("kaboom")
			})
		}})
	}
	ctx := context.Background()
	for fn, want := range map[string]string{
		"test.fail":        "bad input",
		"test.panic":       "panicked: kaboom",
		"test.nan":         "fleet: task result",
		"no.such.function": `no function "no.such.function"`,
	} {
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
	if got := counterValue(t, reg, "eoml_fleet_workers_evicted_total"); got != 0 {
		t.Fatalf("evicted = %v, want 0", got)
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_requeued_total"); got != 0 {
		t.Fatalf("requeued = %v, want 0", got)
	}
	if ws := c.Workers(); len(ws) != 3 {
		t.Fatalf("live workers after task failures: %+v, want all 3", ws)
	}
}

// TestWorkerTaskTimeout: WorkerConfig.TaskTimeout cancels a task that
// runs past it, and the lease fails as a *TaskError.
func TestWorkerTaskTimeout(t *testing.T) {
	c, srv := newTestControlPlane(t, Config{HeartbeatTimeout: time.Hour})
	startTestWorker(t, WorkerConfig{
		ID: "slow", CoordinatorURL: srv.URL, TaskTimeout: 20 * time.Millisecond,
		Register: func(reg *compute.Registry) error {
			return reg.Register("test.hang", func(ctx context.Context, _ map[string]any) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			})
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fut, err := c.Submit(ctx, "test.hang", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fut.Get(ctx)
	var taskErr *TaskError
	if !errors.As(err, &taskErr) || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("task past its timeout: %v, want a *TaskError for the deadline", err)
	}
}

// TestWorkerCancelReachesTask: canceling a lease cancels the task's
// context on its worker, and frees the worker's slot for the next lease
// instead of leaving the canceled task running in it.
func TestWorkerCancelReachesTask(t *testing.T) {
	c, srv := newTestControlPlane(t, Config{HeartbeatTimeout: time.Hour})
	started, canceled, abandon := make(chan struct{}), make(chan struct{}), make(chan struct{})
	startTestWorker(t, WorkerConfig{
		ID: "one-slot", CoordinatorURL: srv.URL, Slots: 1,
		Register: func(reg *compute.Registry) error {
			if err := reg.Register("test.hold", func(ctx context.Context, _ map[string]any) (any, error) {
				close(started)
				select {
				case <-ctx.Done():
					close(canceled)
					return nil, ctx.Err()
				case <-abandon: // a failed test must not hang the worker's Stop
					return nil, errors.New("abandoned")
				}
			}); err != nil {
				return err
			}
			return reg.Register("test.fast", func(context.Context, map[string]any) (any, error) {
				return "fast", nil
			})
		},
	})
	t.Cleanup(func() { close(abandon) }) // runs before the worker's Stop
	lease, drop := context.WithCancel(context.Background())
	held, err := c.Submit(lease, "test.hold", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	drop()
	if _, err := held.Get(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled lease = %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker kept running a task whose lease was canceled")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	next, err := c.Submit(ctx, "test.fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := next.Get(ctx); err != nil || v != "fast" {
		t.Fatalf("next lease in the freed slot = %v, %v", v, err)
	}
}

// TestWorkerStopDeliversRunningLease: a worker stopped while it runs a
// lease finishes that task and delivers its result before it goes down.
// The lease is neither requeued nor run a second time on the spare
// worker.
func TestWorkerStopDeliversRunningLease(t *testing.T) {
	c, srv := newTestControlPlane(t, Config{HeartbeatTimeout: time.Hour})
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	var executions atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	register := func(reg *compute.Registry) error {
		return reg.Register("test.task", func(ctx context.Context, _ map[string]any) (any, error) {
			if executions.Add(1) == 1 {
				close(started)
				<-release
			}
			return "done", nil
		})
	}
	w, err := NewWorker(WorkerConfig{ID: "a-stopping", CoordinatorURL: srv.URL, Register: register})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fut, err := c.Submit(ctx, "test.task", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	startTestWorker(t, WorkerConfig{ID: "b-spare", CoordinatorURL: srv.URL, Register: register})

	stopped := make(chan struct{})
	go func() {
		w.Stop()
		close(stopped)
	}()
	for len(c.Workers()) != 1 { // a-stopping has deregistered
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-stopped
	if v, err := fut.Get(ctx); err != nil || v != "done" {
		t.Fatalf("lease running through Stop = %v, %v", v, err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("task executed %d times, want 1", n)
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_requeued_total"); got != 0 {
		t.Fatalf("requeued = %v, want 0", got)
	}
}

// TestHTTPTransportErrors: what the transport reads as a task failure
// (fatal) and what as a transport failure (requeue). Args JSON cannot
// encode are a *TaskError before any request; a 503 is the typed drain
// rejection; any other non-200 answer and an over-long answer are plain
// transport failures.
func TestHTTPTransportErrors(t *testing.T) {
	ctx := context.Background()
	var tr HTTPTransport
	var taskErr *TaskError
	if _, err := tr.Run(ctx, "http://127.0.0.1:1", "f", map[string]any{"x": math.NaN()}); !errors.As(err, &taskErr) {
		t.Fatalf("unencodable args = %v, want a *TaskError", err)
	}
	for _, tc := range []struct {
		name     string
		answer   func(http.ResponseWriter)
		draining bool
	}{
		{"draining", func(w http.ResponseWriter) { http.Error(w, "draining", http.StatusServiceUnavailable) }, true},
		{"not found", func(w http.ResponseWriter) { http.NotFound(w, nil) }, false},
		{"server error", func(w http.ResponseWriter) { http.Error(w, "oops", http.StatusInternalServerError) }, false},
		{"over-long answer", func(w http.ResponseWriter) {
			fmt.Fprintf(w, `{"result": "%s"}`, strings.Repeat("x", maxBody))
		}, false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { tc.answer(w) }))
		_, err := tr.Run(ctx, srv.URL, "f", nil)
		srv.Close()
		if err == nil || errors.As(err, &taskErr) || errors.Is(err, compute.ErrDraining) != tc.draining {
			t.Fatalf("%s: error %v, want a transport failure (draining %v)", tc.name, err, tc.draining)
		}
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

	// Kill the victim: close its listener and connections without
	// drain, as a crashed process would. The lease's request fails,
	// which evicts the victim and requeues the lease.
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

	// Teardown: unblock the hung task so the victim's Stop can drain.
	close(victimRelease)
	victim.Stop()
}

// TestWorkerDrainRejectsNewTasks: once Stop begins, the worker's
// listener is closed, so a lease still sent to it fails to connect — a
// transport failure the coordinator requeues, never a task error —
// while the lease it already runs still gets its answer.
func TestWorkerDrainRejectsNewTasks(t *testing.T) {
	_, srv := newTestControlPlane(t, Config{})
	started, release := make(chan struct{}), make(chan struct{})
	w, err := NewWorker(WorkerConfig{ID: "drainer", CoordinatorURL: srv.URL, Slots: 2,
		Register: func(reg *compute.Registry) error {
			return reg.Register("test.hold", func(context.Context, map[string]any) (any, error) {
				close(started)
				<-release
				return "held", nil
			})
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var tr HTTPTransport
	held := make(chan error, 1)
	go func() {
		_, err := tr.Run(ctx, w.URL(), "test.hold", nil)
		held <- err
	}()
	<-started
	stopped := make(chan struct{})
	go func() {
		w.Stop() // waits for test.hold to answer
		close(stopped)
	}()
	for {
		// Before Stop closes the listener, an unknown function is a
		// task error; after, every lease is refused.
		_, err := tr.Run(ctx, w.URL(), "test.anything", nil)
		var taskErr *TaskError
		if !errors.As(err, &taskErr) {
			if err == nil || ctx.Err() != nil {
				t.Fatalf("lease during drain = %v, want a transport failure", err)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-stopped
	if err := <-held; err != nil {
		t.Fatalf("lease running through Stop = %v", err)
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
	defer releaseSlow() // runs first: Stop waits for running tasks

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
