package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/metrics"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// transportFunc adapts a function to the Transport interface.
type transportFunc func(ctx context.Context, url, fn string, args map[string]any) (any, error)

func (f transportFunc) Run(ctx context.Context, url, fn string, args map[string]any) (any, error) {
	return f(ctx, url, fn, args)
}

func counterValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, fam := range reg.Snapshot() {
		if fam.Name == name {
			total := 0.0
			for _, s := range fam.Series {
				total += s.Value
			}
			return total
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func TestFleetDispatchAndComplete(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{
		Clock: clk.Now,
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			return map[string]any{"echo": args["n"], "worker": url}, nil
		}),
	})
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)

	if err := c.Register("w1", "http://w1", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("w2", "http://w2", 2); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var futs []*Future
	for i := 0; i < 8; i++ {
		fut, err := c.Submit(ctx, "echo", map[string]any{"n": i})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for i, fut := range futs {
		v, err := fut.Get(ctx)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		m := v.(map[string]any)
		if m["echo"] != i {
			t.Fatalf("task %d echoed %v", i, m["echo"])
		}
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_completed_total"); got != 8 {
		t.Fatalf("completed = %v, want 8", got)
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_failed_total"); got != 0 {
		t.Fatalf("failed = %v, want 0", got)
	}
	ws := c.Workers()
	if len(ws) != 2 || ws[0].ID != "w1" || ws[1].ID != "w2" {
		t.Fatalf("workers = %+v", ws)
	}
}

// TestFleetInFlightBounds holds tasks open and asserts the coordinator
// never leases beyond a worker's declared capacity.
func TestFleetInFlightBounds(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	inflight, peak := 0, 0
	c := NewCoordinator(Config{
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			mu.Unlock()
			<-release
			mu.Lock()
			inflight--
			mu.Unlock()
			return "ok", nil
		}),
	})
	defer c.Close()
	if err := c.Register("w1", "http://w1", 2); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var futs []*Future
	for i := 0; i < 6; i++ {
		fut, err := c.Submit(ctx, "hold", nil)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	close(release)
	for _, fut := range futs {
		if _, err := fut.Get(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("peak in-flight %d exceeds capacity 2", peak)
	}
}

// TestFleetDrainingRequeue: a worker that drained — deregistration
// not yet seen, listener already closed — refuses the connection. That
// transport failure evicts it and requeues the lease onto a live
// worker instead of failing the task.
func TestFleetDrainingRequeue(t *testing.T) {
	c := NewCoordinator(Config{
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			if url == "http://a-drained" {
				return nil, fmt.Errorf("dial tcp: connection refused")
			}
			return "ok", nil
		}),
	})
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	// Ties go to the lower ID, so the first lease lands on the drained one.
	for _, id := range []string{"a-drained", "b-live"} {
		if err := c.Register(id, "http://"+id, 1); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	fut, err := c.Submit(ctx, "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != "ok" {
		t.Fatalf("result = %v", v)
	}
	for name, want := range map[string]float64{
		"eoml_fleet_tasks_requeued_total":  1,
		"eoml_fleet_workers_evicted_total": 1,
		"eoml_fleet_tasks_failed_total":    0,
	} {
		if got := counterValue(t, reg, name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	if ws := c.Workers(); len(ws) != 1 || ws[0].ID != "b-live" {
		t.Fatalf("live workers %+v, want only b-live", ws)
	}
}

// TestFleetTaskErrorFatal: a *TaskError (the task function itself
// failed) must fail the task immediately, with no requeue.
func TestFleetTaskErrorFatal(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	c := NewCoordinator(Config{
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return nil, &TaskError{Msg: "no such granule"}
		}),
	})
	defer c.Close()
	if err := c.Register("w1", "http://w1", 1); err != nil {
		t.Fatal(err)
	}
	fut, err := c.Submit(context.Background(), "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fut.Get(context.Background())
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TaskError", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("transport called %d times, want 1 (task errors are fatal)", calls)
	}
}

// TestFleetMaxAttempts: persistent transport failure exhausts the
// attempt budget and fails the task. Each failure evicts the worker it
// hit, so the fleet holds one more worker than the budget: the task
// fails on its budget, with a worker still left to lease it to.
func TestFleetMaxAttempts(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	c := NewCoordinator(Config{
		MaxAttempts: 3,
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return nil, fmt.Errorf("dial tcp: connection refused")
		}),
	})
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	for _, id := range []string{"w1", "w2", "w3", "w4"} {
		if err := c.Register(id, "http://"+id, 1); err != nil {
			t.Fatal(err)
		}
	}
	fut, err := c.Submit(context.Background(), "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fut.Get(context.Background())
	if err == nil || !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Fatalf("err = %v, want attempts-exhausted", err)
	}
	mu.Lock()
	if calls != 3 {
		t.Fatalf("transport called %d times, want 3", calls)
	}
	mu.Unlock()
	if got := counterValue(t, reg, "eoml_fleet_tasks_failed_total"); got != 1 {
		t.Fatalf("failed = %v, want 1", got)
	}
	if ws := c.Workers(); len(ws) != 1 {
		t.Fatalf("live workers %+v, want the one the budget never reached", ws)
	}
}

// TestFleetHeartbeatEviction drives eviction with a fake clock: a
// worker stops beating mid-task, Sweep requeues its lease to a live
// worker, and the zombie's late failure is discarded — the task
// completes exactly once.
func TestFleetHeartbeatEviction(t *testing.T) {
	clk := newFakeClock()
	block := make(chan struct{})
	c := NewCoordinator(Config{
		HeartbeatTimeout: 3 * time.Second,
		Clock:            clk.Now,
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			if url == "http://dead" {
				<-block // stuck until after the retry completes
				return nil, fmt.Errorf("connection reset")
			}
			return "ok", nil
		}),
	})
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)

	if err := c.Register("dead", "http://dead", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fut, err := c.Submit(ctx, "work", nil)
	if err != nil {
		t.Fatal(err)
	}

	// The live worker joins and keeps beating; the dead one goes quiet.
	clk.Advance(2 * time.Second)
	if err := c.Register("live", "http://live", 1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // dead: 4s since beat; live: 2s
	c.Sweep()

	v, err := fut.Get(ctx)
	if err != nil {
		t.Fatalf("task after eviction: %v", err)
	}
	if v != "ok" {
		t.Fatalf("result = %v", v)
	}
	close(block) // release the zombie; its failure must be discarded
	c.Close()    // joins the zombie goroutine before we read counters

	if got := counterValue(t, reg, "eoml_fleet_workers_evicted_total"); got != 1 {
		t.Fatalf("evicted = %v, want 1", got)
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_completed_total"); got != 1 {
		t.Fatalf("completed = %v, want 1 (exactly-once)", got)
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_failed_total"); got != 0 {
		t.Fatalf("failed = %v, want 0", got)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].ID != "live" {
		t.Fatalf("workers after eviction = %+v", ws)
	}
}

// TestFleetStealExactlyOnce: an idle worker speculatively duplicates a
// straggler's lease; both copies finish, but the future resolves once
// and the completed counter says 1.
func TestFleetStealExactlyOnce(t *testing.T) {
	clk := newFakeClock()
	slowRelease := make(chan struct{})
	c := NewCoordinator(Config{
		HeartbeatTimeout: time.Hour, // no eviction in this test
		StealAfter:       5 * time.Second,
		Clock:            clk.Now,
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			if url == "http://slow" {
				select {
				case <-slowRelease:
					return "slow-ok", nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return "fast-ok", nil
		}),
	})
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)

	if err := c.Register("slow", "http://slow", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fut, err := c.Submit(ctx, "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register("fast", "http://fast", 1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	c.Sweep() // lease is 10s old > StealAfter: duplicate onto fast

	v, err := fut.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != "fast-ok" {
		t.Fatalf("result = %v, want the thief's", v)
	}
	close(slowRelease) // loser finishes; result must be discarded
	c.Close()

	if got := counterValue(t, reg, "eoml_fleet_tasks_stolen_total"); got != 1 {
		t.Fatalf("stolen = %v, want 1", got)
	}
	if got := counterValue(t, reg, "eoml_fleet_tasks_completed_total"); got != 1 {
		t.Fatalf("completed = %v, want 1 (exactly-once)", got)
	}
}

// TestFleetSubmitAfterClose.
func TestFleetSubmitAfterClose(t *testing.T) {
	c := NewCoordinator(Config{
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			return "ok", nil
		}),
	})
	c.Close()
	if _, err := c.Submit(context.Background(), "work", nil); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestFleetCloseFailsPending: queued tasks with no worker resolve with
// an error instead of hanging their futures.
func TestFleetCloseFailsPending(t *testing.T) {
	c := NewCoordinator(Config{
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			return "ok", nil
		}),
	})
	fut, err := c.Submit(context.Background(), "work", nil) // no workers registered
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := fut.Get(context.Background()); err == nil {
		t.Fatal("pending task's future resolved without error after Close")
	}
}

// TestFleetHeartbeatUnknownWorker: beats from an evicted worker are
// refused so the worker knows to re-register.
func TestFleetHeartbeatUnknownWorker(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	if c.Heartbeat("ghost") {
		t.Fatal("heartbeat for unknown worker accepted")
	}
	if err := c.Register("w1", "http://w1", 1); err != nil {
		t.Fatal(err)
	}
	if !c.Heartbeat("w1") {
		t.Fatal("heartbeat for registered worker refused")
	}
}

// TestFleetStealRaceHammer exercises the steal/complete/requeue paths
// under -race: many tasks, aggressive stealing, concurrent sweeps.
// Every task must complete exactly once.
func TestFleetStealRaceHammer(t *testing.T) {
	const tasks = 120
	var mu sync.Mutex
	perTask := map[int]int{} // task n -> transport executions
	c := NewCoordinator(Config{
		HeartbeatTimeout: time.Hour,
		StealAfter:       time.Nanosecond, // everything outstanding is stealable
		Transport: transportFunc(func(ctx context.Context, url, fn string, args map[string]any) (any, error) {
			n := args["n"].(int)
			mu.Lock()
			perTask[n]++
			mu.Unlock()
			return n, nil
		}),
	})
	for i := 0; i < 4; i++ {
		if err := c.Register(fmt.Sprintf("w%d", i), fmt.Sprintf("http://w%d", i), 2); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	stopSweeps := make(chan struct{})
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopSweeps:
					return
				default:
					c.Sweep()
				}
			}
		}()
	}

	futs := make([]*Future, tasks)
	for i := 0; i < tasks; i++ {
		fut, err := c.Submit(ctx, "work", map[string]any{"n": i})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		v, err := fut.Get(ctx)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if v != i {
			t.Fatalf("task %d returned %v (cross-task result mixup)", i, v)
		}
	}
	close(stopSweeps)
	wg.Wait()
	c.Close()

	if got := c.completed.Load(); got != tasks {
		t.Fatalf("completed = %d, want %d (exactly-once delivery)", got, tasks)
	}
}

// TestStolenTaskCacheHitExactlyOnce pins the satellite scenario from
// the worker's result memo: the primary lease blocks, the coordinator
// steals the task, the thief computes and memoizes, and when the
// blocked primary finally runs it lands a cache hit — the duplicate
// result must be discarded, not delivered twice, and nothing may
// recompute.
func TestStolenTaskCacheHitExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	rc := NewResultCache(0)
	var computes int64
	var mu sync.Mutex
	gate := make(chan struct{})
	primaryIn := make(chan struct{})
	tr := transportFunc(func(_ context.Context, url, _ string, args map[string]any) (any, error) {
		if url == "http://w1" {
			close(primaryIn)
			<-gate // hold the primary lease so the steal fires first
		}
		if v, ok := rc.Get("granule-A"); ok {
			return v, nil
		}
		mu.Lock()
		computes++
		mu.Unlock()
		rc.Put("granule-A", 42)
		return 42, nil
	})
	c := NewCoordinator(Config{
		HeartbeatTimeout: time.Hour,
		StealAfter:       time.Millisecond,
		Transport:        tr,
		Clock:            clock.Now,
	})
	defer c.Close()
	if err := c.Register("w1", "http://w1", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("w2", "http://w2", 1); err != nil {
		t.Fatal(err)
	}
	fut, err := c.Submit(context.Background(), "preprocess", map[string]any{"g": "A"})
	if err != nil {
		t.Fatal(err)
	}
	<-primaryIn
	clock.Advance(time.Second)
	c.Sweep() // steal the stale lease onto w2

	v, err := fut.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("result = %v, want 42", v)
	}
	close(gate) // release the primary; its cache-hit duplicate must be discarded
	c.Close()

	mu.Lock()
	defer mu.Unlock()
	if computes != 1 {
		t.Fatalf("kernel computed %d times, want 1 (thief only)", computes)
	}
	hits, _, _ := rc.Stats()
	if hits != 1 {
		t.Fatalf("result cache hits = %d, want 1 (the released primary)", hits)
	}
	if got := c.completed.Load(); got != 1 {
		t.Fatalf("completed = %d, want exactly once", got)
	}
}

// TestFleetStealCacheHammer is the steal hammer with a memoizing
// transport: aggressive stealing, concurrent sweeps, and a shared result
// cache standing in for the workers' memo. Every task must deliver its
// own result exactly once no matter how many duplicate leases hit the
// cache.
func TestFleetStealCacheHammer(t *testing.T) {
	const tasks = 120
	rc := NewResultCache(0)
	c := NewCoordinator(Config{
		HeartbeatTimeout: time.Hour,
		StealAfter:       time.Nanosecond, // everything outstanding is stealable
		Transport: transportFunc(func(_ context.Context, _, _ string, args map[string]any) (any, error) {
			n := args["n"].(int)
			key := fmt.Sprintf("task-%d", n)
			if v, ok := rc.Get(key); ok {
				return v, nil
			}
			rc.Put(key, n)
			return n, nil
		}),
	})
	for i := 0; i < 4; i++ {
		if err := c.Register(fmt.Sprintf("w%d", i), fmt.Sprintf("http://w%d", i), 2); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	stopSweeps := make(chan struct{})
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopSweeps:
					return
				default:
					c.Sweep()
				}
			}
		}()
	}
	futs := make([]*Future, tasks)
	for i := 0; i < tasks; i++ {
		fut, err := c.Submit(ctx, "work", map[string]any{"n": i})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		v, err := fut.Get(ctx)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if v != i {
			t.Fatalf("task %d returned %v (cross-task result mixup)", i, v)
		}
	}
	close(stopSweeps)
	wg.Wait()
	c.Close()
	if got := c.completed.Load(); got != tasks {
		t.Fatalf("completed = %d, want %d (exactly once each)", got, tasks)
	}
}
